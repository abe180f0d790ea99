"""``python -m benchmarks.e2e {run,compare,baseline}`` (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
