"""Fresh-interpreter helper for run.py.

    python3 -I child.py SRC

imports latdec.cli from SRC, prints "ready", then reads CLI argument
lists, one JSON list per line on stdin, and answers each with a JSON
line [exit code, sha256 of stdout].  run.py times the "ready" line to
measure set-up, and replays calls here to check that their output bytes
do not depend on the process that made them.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout


def main():
    sys.path.insert(0, sys.argv[1])
    from latdec import cli

    print("ready", flush=True)
    for line in sys.stdin:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(json.loads(line))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(json.dumps([code, digest]), flush=True)


if __name__ == "__main__":
    main()
