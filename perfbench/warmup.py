"""Start-up probe: import frgc and code one tiny stream per header.

``python3 perfbench/warmup.py SPECS_JSON`` prints ``ready`` once the
interpreter is up, ``frgc`` is imported and every header in SPECS_JSON
has coded and decoded a short stream, which pays for lazy work such as
the adaptive m-table.  The benchmark times this from process start as
its set-up time, and calls ``warm_up`` itself before it measures.
"""

from __future__ import annotations

import json
import sys

TINY = 64


def make_header(frgc, spec: dict):
    fields = dict(spec)
    if fields.get("lpc") is not None:
        fields["lpc"] = frgc.LpcConfig(*fields["lpc"])
    return frgc.StreamHeader(**fields)


def warm_up(frgc, specs) -> None:
    xs = [(7 * i) % 41 for i in range(TINY)]
    for spec in specs:
        header = make_header(frgc, spec)
        pred = None if header.lpc is not None else [x + 0.3 for x in xs]
        data = frgc.encode_stream(xs, header, predictions=pred)
        if frgc.decode_stream(data, predictions=pred) != xs:
            raise RuntimeError(f"warm-up round trip failed for {spec}")


def main(argv: list[str]) -> int:
    import frgc

    warm_up(frgc, json.loads(argv[1]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
