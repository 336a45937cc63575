"""Run the command-line front end: python -m lindsymlab."""

import sys

from .cli import main

sys.exit(main())
