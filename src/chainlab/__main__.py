"""`python -m chainlab`: the `chainlab` command."""

import sys

from .cli import main

sys.exit(main())
