"""Module entry point: ``python -m repro``."""

import sys

try:
    from repro.cli import main
except KeyboardInterrupt:
    # Ctrl-C before main() runs ends the way main() ends it.
    print("repro: interrupted", file=sys.stderr)
    sys.exit(130)

sys.exit(main())
