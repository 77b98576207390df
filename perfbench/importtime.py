"""Break a cold start-up down by package from ``python -X importtime``.

Each line of that log gives one module's *self* import time; summing
self times by dotted-name prefix attributes every module to exactly one
package, whatever imported it and however deep it nests.
"""

from __future__ import annotations

#: metric -> module-name prefix whose self times it sums.  The program's
#: only SciPy import is ``from scipy import sparse``, so all of ``scipy.*``
#: is the cost of that one line.
PACKAGES = {
    "import.numpy_s": "numpy",
    "import.scipy_sparse_s": "scipy",
    "import.networkx_s": "networkx",
    "import.repro_self_s": "repro",
}


def parse(log: str) -> "dict[str, float]":
    """The ``import.*`` metrics of one ``-X importtime`` stderr log."""
    selfs: "list[tuple[str, int]]" = []
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        selfs.append((fields[2].strip(), int(fields[0])))
    out: "dict[str, float]" = {
        "import.total_s": sum(us for _, us in selfs) / 1e6,
        "import.modules": len(selfs),
    }
    for metric, prefix in PACKAGES.items():
        out[metric] = (
            sum(us for name, us in selfs if name == prefix or name.startswith(prefix + "."))
            / 1e6
        )
    return out
