"""``python3 -m coaxtail``: the same entry point as the ``coaxtail`` script."""

import sys

from .analysis import cli_main

sys.exit(cli_main())
