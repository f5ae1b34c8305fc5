"""One digest line per benchmark request, for same-answers checks.

Runs every request of the seed-1 and seed-2 request lists of the four
benchmark workloads (``bench/workloads.py``) in-process through
``mvtlab.cli.main`` (every request carries ``--stable``), and prints for
each request

    workload seed index exit-code sha256(stdout) sha256(stderr)

Two checkouts give the same answers when their outputs compare equal:

    python3 tools/stable_digest.py > before.txt    # in one checkout
    python3 tools/stable_digest.py > after.txt     # in the other
    cmp before.txt after.txt

The script imports the package from the ``src`` directory next to it and
edits nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import mvtlab.cli  # noqa: E402
from workloads import WORKLOADS, request_list  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code, sha256 of stdout, sha256 of stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mvtlab.cli.main(argv)
        except SystemExit as exc:   # argparse reports usage errors this way
            code = exc.code
        except Exception as exc:    # recorded, so a crash shows up as a difference
            code = f"raised:{type(exc).__name__}"
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def main() -> int:
    for workload in WORKLOADS:
        for seed in (1, 2):
            for i, req in enumerate(request_list(workload, seed)):
                code, so, se = digest(list(req.argv))
                print(workload, seed, i, code, so, se, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
