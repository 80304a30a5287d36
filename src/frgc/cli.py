"""Command-line front end: encode/decode files, round trips, experiments.

Exit codes: 0 success, 1 usage, 2 unreadable or corrupt data, 3 verified
mismatch.  Integer files carry one decimal integer per line; prediction
files one decimal real per line.
"""

from __future__ import annotations

import argparse
import sys

from frgc import codec, harness
from frgc.bitcoder import CorruptStreamError
from frgc.codec import HeaderError, StreamHeader
from frgc.predictor import LpcConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3

DEFAULT_PREDICTOR = ("lpc", LpcConfig(2, 16, 16))


class _DataError(Exception):
    """Unreadable input: missing file, bad literal, truncated stream."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _predictor_arg(text: str):
    if text.startswith("lpc:"):
        parts = text[4:].split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                "lpc predictor takes order,window,refit_interval")
        try:
            return "lpc", LpcConfig(*(int(p) for p in parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    if text.startswith("ext:"):
        if not text[4:]:
            raise argparse.ArgumentTypeError("ext predictor needs a file path")
        return "ext", text[4:]
    raise argparse.ArgumentTypeError(
        f"expected lpc:order,window,refit or ext:<file>, got {text!r}")


def _read_numbers(path: str, parse) -> list:
    """One number per non-blank line, each read by parse (int or float)."""
    try:
        with open(path) as fh:
            return [parse(line) for line in fh if line.strip()]
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, data) -> None:
    try:
        if isinstance(data, bytes):
            with open(path, "wb") as fh:
                fh.write(data)
        else:
            with open(path, "w") as fh:
                fh.writelines(f"{value}\n" for value in data)
    except OSError as exc:
        raise _DataError(f"cannot write {path}: {exc}") from exc


def _bits_per_symbol(data: bytes, count: int) -> str:
    """The payload's bits per symbol, as the summary lines print it: the
    header and the CRC are left out."""
    bits = 8 * len(codec.read_container(data)[2])
    return f"{bits / count if count else 0.0:.3f} bits/symbol"


def _build_header_and_predictions(args):
    """Shared by encode and roundtrip; raises for inconsistent options."""
    kind, value = args.predictor
    lpc = value if kind == "lpc" else None
    predictions = _read_numbers(value, float) if kind == "ext" else None
    if args.mode in (codec.MODE_FIXED, codec.MODE_RICE) and args.m is None:
        raise HeaderError(f"{args.mode} mode requires --m")
    if args.mode == codec.MODE_ADAPTIVE and args.m is not None:
        raise HeaderError("adaptive mode picks m itself; drop --m")
    rho = 1 if args.rho is None else args.rho
    default_tau = 1 if args.mode == codec.MODE_RICE else 16
    tau = default_tau if args.tau is None else args.tau
    header = StreamHeader(  # raises HeaderError unless the fields agree
        mode=args.mode, rho=rho, tau=tau, m=args.m or 0,
        alphabet_q=args.alphabet_q, lpc=lpc,
        raw_error_estimator=args.raw_estimator)
    return header, predictions


def _cmd_encode(args) -> int:
    try:
        header, predictions = _build_header_and_predictions(args)
    except HeaderError as exc:
        print(f"frgc encode: {exc}", file=sys.stderr)
        return EXIT_USAGE
    xs = _read_numbers(args.infile, int)
    try:
        data = codec.encode_stream(xs, header, predictions)
    except (ValueError, OverflowError) as exc:
        print(f"frgc encode: {exc}", file=sys.stderr)
        return EXIT_DATA
    _write_file(args.out, data)
    print(f"{len(xs)} symbols -> {len(data)} bytes ({header.mode}, "
          f"{header.rho}/{header.tau}, {_bits_per_symbol(data, len(xs))})")
    return EXIT_OK


def _cmd_decode(args) -> int:
    data = _read_bytes(args.infile)
    predictions = None
    if args.predictor is not None:
        kind, value = args.predictor
        if kind == "lpc":
            print("frgc decode: lpc streams carry their predictor in the "
                  "header; --predictor only takes ext:<file> here",
                  file=sys.stderr)
            return EXIT_USAGE
        predictions = _read_numbers(value, float)
    try:
        xs = codec.decode_stream(data, predictions)
    except (HeaderError, CorruptStreamError, ValueError, OverflowError) as exc:
        print(f"frgc decode: {exc}", file=sys.stderr)
        return EXIT_DATA
    _write_file(args.out, xs)
    print(f"{len(data)} bytes -> {len(xs)} symbols")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    try:
        header, predictions = _build_header_and_predictions(args)
    except HeaderError as exc:
        print(f"frgc roundtrip: {exc}", file=sys.stderr)
        return EXIT_USAGE
    xs = _read_numbers(args.infile, int)
    try:
        data = codec.encode_stream(xs, header, predictions)
        decoded = codec.decode_stream(data, predictions)
    except (HeaderError, CorruptStreamError, ValueError, OverflowError) as exc:
        print(f"frgc roundtrip: {exc}", file=sys.stderr)
        return EXIT_DATA
    if decoded != xs:
        bad = sum(1 for a, b in zip(decoded, xs) if a != b)
        bad += abs(len(decoded) - len(xs))
        print(f"frgc roundtrip: MISMATCH ({bad} symbols differ)",
              file=sys.stderr)
        return EXIT_MISMATCH
    print(f"roundtrip ok: {len(xs)} symbols, {len(data)} bytes, "
          f"{_bits_per_symbol(data, len(xs))}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    try:  # table2 samples nothing, but a bad flag is an error there too
        harness.check_sampling(args.n, args.seed)
    except ValueError as exc:
        print(f"frgc analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.experiment == "table2":
        rows, fields = harness.run_table2(), harness.TABLE2_FIELDS
    else:
        make_spec, run, fields = {
            "table3": (harness.table3_spec, harness.run_table3, harness.TABLE3_FIELDS),
            "fig6": (harness.fig6_spec, harness.run_fig6, harness.FIG6_FIELDS),
        }[args.experiment]
        rows = run(make_spec(seed=args.seed, n=args.n))
    try:
        harness.write_csv(args.out, fields, rows)
    except OSError as exc:
        raise _DataError(f"cannot write {args.out}: {exc}") from exc
    print(f"{args.experiment}: {len(rows)} rows -> {args.out}")
    return EXIT_OK


def _add_encode_options(sub) -> None:
    sub.add_argument("--rho", type=int, help="precision numerator (default 1)")
    sub.add_argument("--tau", type=int, help="precision denominator (default 16; rice 1)")
    sub.add_argument("--mode", choices=(codec.MODE_FIXED, codec.MODE_ADAPTIVE,
                                        codec.MODE_RICE),
                     default=codec.MODE_ADAPTIVE)
    sub.add_argument("--m", type=int, default=None,
                     help="Golomb parameter (fixed/rice modes)")
    sub.add_argument("--predictor", type=_predictor_arg,
                     default=DEFAULT_PREDICTOR,
                     help="lpc:order,window,refit or ext:<file> "
                          "(default lpc:2,16,16)")
    sub.add_argument("--alphabet-q", type=int, default=0,
                     help="declare symbols in [0, Q); 0 = unbounded")
    sub.add_argument("--raw-estimator", action="store_true",
                     help="adaptive mode: estimate from raw |x - xhat|")


def _build_parser() -> _Parser:
    parser = _Parser(prog="frgc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    enc = sub.add_parser("encode", help="encode an integer file")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    _add_encode_options(enc)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decode back to an integer file")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--predictor", type=_predictor_arg, default=None,
                     help="ext:<file> predictions matching the encode")
    dec.set_defaults(func=_cmd_decode)

    rt = sub.add_parser("roundtrip",
                        help="encode+decode in memory and verify identity")
    rt.add_argument("--in", dest="infile", required=True)
    _add_encode_options(rt)
    rt.set_defaults(func=_cmd_roundtrip)

    an = sub.add_parser("analyze", help="run an experiment sweep to CSV")
    an.add_argument("experiment", choices=("table2", "table3", "fig6"))
    an.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    an.add_argument("--n", type=int, default=harness.DEFAULT_N,
                    help="samples per theta cell")
    an.add_argument("--out", required=True)
    an.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DataError as exc:
        print(f"frgc: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
