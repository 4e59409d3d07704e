"""Regenerate reference.json: the Monte Carlo sum rate and standard error of
every output row, for every input set of the sweep workloads.

    python3 bench/make_reference.py

The benchmark counts a row as failed when its Monte Carlo sum rate leaves
max(4 combined SE, 1e-9 relative) of the stored value, so regenerate only
when the stored values are meant to move: a new config generator, or a
deliberate change to what the Monte Carlo estimator computes.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import yaml  # noqa: E402

from workloads import TABLE, WORKLOADS, _rows, config_digest  # noqa: E402

SWEEPS = ("power_sweep", "size_sweep")


def main() -> int:
    lines = ["{"]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        cfg_path = Path(tmp) / "config.yaml"
        for w, name in enumerate(SWEEPS):
            wl = WORKLOADS[name]
            lines.append(f' "{name}": {{')
            for index in range(TABLE):
                raw = wl.config(index)
                cfg_path.write_text(yaml.safe_dump(raw))
                _, rc, outputs = run.cli_call(wl, cfg_path, Path(tmp) / "out")
                if rc != 0:
                    print(f"error: {name} input set {index} exited with {rc}", file=sys.stderr)
                    return 1
                mc = [[float(f"{float(r[c]):.12g}") for c in ("mc_sum_rate", "mc_stderr")]
                      for r in _rows(outputs[wl.outputs[0]])]
                entry = json.dumps({"config_sha256": config_digest(raw), "mc": mc})
                sep = "," if index < TABLE - 1 else ""
                lines.append(f'  "{index}": {entry}{sep}')
                print(f"{name} {index}", file=sys.stderr)
            lines.append(" }," if w < len(SWEEPS) - 1 else " }")
    lines.append("}")
    (run.BENCH / "reference.json").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
