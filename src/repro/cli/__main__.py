"""``python -m repro.cli`` — the ``repro`` command line."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
