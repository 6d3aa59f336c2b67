"""Run one `qe` command under the tracer and dump its aggregates.

    python3 perfbench/traced_cli.py TRACE_OUT.json COMMAND [ARGS...]

The traced counterpart of `python -m qebundle.cli COMMAND ...`, used by
the cli-cold workload's traced run. The package is found through
PYTHONPATH, as for the untraced command.
"""

import json
import sys

from tracer import Tracer

if __name__ == "__main__":
    import qebundle.cli

    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(None)
    try:
        code = qebundle.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    sys.exit(code)
