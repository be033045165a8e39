"""What every verb does with a bad invocation: one line on stderr, exit code 2."""

import sys


def usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2
