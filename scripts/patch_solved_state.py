"""Solve each case's conventional base power flow and store the solved
voltages back into the bus matrix (columns VM, VA), the solved-case-file
convention. Requires accurate network data; run after any data edit."""
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from pfcert.admittance import build_admittance
from pfcert.net_model import load_case_file
from pfcert.oracle import newton_base_case


def patch(path: Path) -> None:
    case = load_case_file(path)
    phasors = newton_base_case(case, build_admittance(case))
    text = path.read_text()
    m = re.search(r"mpc\.bus\s*=\s*\[(.*?)\];", text, re.S)
    body = m.group(1)
    out_rows = []
    for line in body.splitlines():
        stripped = line.split("%")[0].strip().rstrip(";")
        if not stripped:
            out_rows.append(line)
            continue
        cols = stripped.split()
        bus_id = int(float(cols[0]))
        v = phasors[bus_id]
        cols[7] = f"{abs(v):.7g}"
        cols[8] = f"{np.degrees(np.angle(v)):.7g}"
        out_rows.append("\t" + "\t".join(cols) + ";")
    # the body's first line is the rest of the "mpc.bus = [" line, kept as it is
    text = text[: m.start(1)] + "\n".join(out_rows) + "\n" + text[m.end(1):]
    path.write_text(text)
    print(f"patched {path.name}")


if __name__ == "__main__":
    for name in sys.argv[1:]:
        patch(Path(__file__).resolve().parents[1] / "data" / name)
