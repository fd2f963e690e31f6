"""``python -m polycarleson``: the command-line interface, ``cli.main``."""

import sys

from .cli import main

sys.exit(main())
