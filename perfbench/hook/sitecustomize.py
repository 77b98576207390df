"""Start-up hook of the traced run.

Only the traced run puts this directory on ``PYTHONPATH``, so every
``repro`` process it starts — the CLI and each ``repro worker`` — wraps
the layer table before the program's own code runs.  A table that no
longer matches the code stops the process with exit code 97 rather
than letting the traced run report zeros.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.append(_ROOT)

try:
    from perfbench.tracing import install_from_env

    install_from_env()
except BaseException as exc:  # noqa: BLE001 - site would swallow it otherwise
    sys.stderr.write(f"perfbench trace hook failed: {type(exc).__name__}: {exc}\n")
    sys.stderr.flush()
    os._exit(97)
