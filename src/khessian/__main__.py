"""``python -m khessian``: the command-line front end, as the console script."""

import sys

from .cli import main

sys.exit(main())
