"""`python -m telefid` runs the command line."""

import sys

from .cli_sweep import main

sys.exit(main())
