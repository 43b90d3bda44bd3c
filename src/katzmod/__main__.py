"""Run the command line as ``python -m katzmod``."""

import sys

from .cli import main

sys.exit(main())
