"""Command-line interface.

Subcommands::

    corelat roots TYPE                  root system invariants as JSON
    corelat cores TYPE B                region lattice points with sizes
    corelat verify THEOREM [flags]      run a verification suite
    corelat draw TYPE --b B             rank-2 SVG picture

Exit codes: 0 = pass, 1 = a failed identity, 2 = refused: an unknown
type, a b not coprime to h, a rank ``draw`` cannot picture, a cap that is
not a positive integer, work over the cap, or an --out that cannot be
written.  A refusal is raised as ValueError, and ``main`` prints it as one
``error:`` line.  A failed identity is raised as AssertionError: ``verify``
reports it as a counterexample record, and for every other command
``main`` prints it as one ``failed:`` line.  Rationals print as "p/q" in
lowest terms, never as decimals.
``cores`` and ``verify`` each run in one ``sommers.capped`` block: --cap, else CORELAT_CAP.
Every JSON document goes through ``to_json``, the one writer: it prints what
``json.dumps(doc, indent=2, sort_keys=True)`` prints, with ``json``'s C
encoder writing each container of scalars.  Records have one path, the
column block: a dict of equal-length columns in a stream, standing for its
rows.  A column that is a list of scalars takes one C encoder call, split
back into rows on its item separator, which holds a newline that no
encoded string holds.  An int64 column, a 2-D array or a
``cores.PartitionBlock``, is formatted by ``_int_rows`` with no type scan
and no Python int per value.  Any other list, a list of dicts too, is
walked.  ``roots`` hands its positive roots over as one column block.  Every
command writes through ``_emit`` into a sink, the write of --out or stdout.
The ``cores`` rows come as an iterator of column blocks of points, and each
block's text goes to the sink before the next block is made, so neither
the rows nor the text are ever held whole; every check of the region runs
before the first byte.  A reader that closes stdout early stops the
writing, with nothing on stderr and the command's own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterator
from functools import cache, partial
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import cores, draw, rootsys, sommers, verify

FAILED = 1
USAGE_ERROR = 2

#: where a writer puts its text: the ``write`` of a file, or any callable
Sink = Callable[[str], object]


def _cap(args) -> int:
    """--cap, else a nonempty CORELAT_CAP, else the default; ValueError
    naming its source unless it is a positive integer."""
    if args.cap is not None:
        source, text = "--cap", args.cap
    elif os.environ.get("CORELAT_CAP"):
        source, text = "CORELAT_CAP", os.environ["CORELAT_CAP"]
    else:
        return sommers.DEFAULT_CAP
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return int(text)


def _emit(args, write_doc: Callable[[Sink], object]) -> None:
    """Call ``write_doc(write)`` with a ``write`` to --out, else to stdout, and
    end the output with a newline unless it ends with one.  --out is opened
    here, after the command's checks, so a refused or failed command creates
    no file; ValueError when --out cannot be written.  A reader that closes
    stdout early ends the writing quietly, and the command keeps its exit code."""
    def emit(out) -> None:
        end = ""

        def write(text: str) -> None:
            nonlocal end
            if text:
                out.write(text)
                end = text[-1]
        write_doc(write)
        if end != "\n":
            out.write("\n")

    if not args.out:
        try:
            emit(sys.stdout)
        except BrokenPipeError:
            # send the rest, and the flush at exit, nowhere: neither can raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(args.out, "w") as fh:
            emit(fh)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


#: value types that ``json``'s C encoder writes as ``json.dumps`` with an
#: indent does (an ``int`` subclass or a float takes the leaf path instead)
_SCALARS = frozenset((int, str, bool, type(None)))


def _is_int_column(values) -> bool:
    """True for a column of int64 rows: a ``cores.PartitionBlock`` or a 2-D int64 array."""
    return isinstance(values, cores.PartitionBlock) or (
        isinstance(values, np.ndarray) and values.ndim == 2 and values.dtype == np.int64)


def _int_rows(values, sep: str) -> Iterator[str]:
    """The rows of the int64 column ``values`` (``_is_int_column``), each
    as the texts of its ints joined by ``sep``.  An int's text is the one
    ``json`` gives it, made once per distinct value and with no type scan:
    the dtype is the check.  Values that span fewer ints than they number
    index a table of that span, any others a table of their ``np.unique``.
    The texts of all rows are one ``str.join``, cut into rows, as they are
    read, at the offsets that the texts' lengths give."""
    if isinstance(values, cores.PartitionBlock):
        flat, counts = values.lengths, values.rows
    else:
        flat, counts = values.ravel(), np.full(len(values), values.shape[1])
    lo, hi = int(flat.min(initial=0)), int(flat.max(initial=0))
    if hi - lo < len(flat):
        distinct, index = np.arange(lo, hi + 1), flat - lo
    else:
        distinct, index = np.unique(flat, return_inverse=True)
    table = np.array(list(map(str, distinct.tolist())), dtype=object)
    text = sep.join(table[index].tolist())
    # int k starts at starts[k] of text, and a separator follows each int but the last
    starts = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, table), dtype=np.int64, count=len(table))[index] + len(sep), out=starts[1:])
    last = counts.cumsum()
    first = starts[last - counts]
    return (text[a:b] for a, b in zip(first.tolist(), np.maximum(starts[last] - len(sep), first).tolist()))


def to_json(obj, sink: Sink | None = None) -> str | None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for documents with string
    keys, byte for byte: returned, or with a ``sink`` given to it in pieces.
    With an indent, ``json`` takes its pure-Python encoder.  Here one walk
    appends to one chunk list, joined once at the end, or with a sink at the
    end of each block of a stream.  A nonempty dict, list or tuple whose
    values are all ``_SCALARS`` is written by one call of ``json``'s C
    encoder, made once per depth with that depth's item separator.

    A stream, an iterator of blocks, is written as the one list of their
    items, a block at a time: a sink gets each block's text before the next
    block is read, so neither the items nor the text are held whole.  A
    block is a list or tuple of items, walked like any list, or a column
    block: a dict that maps ``str`` keys to equally long columns, and stands
    for the records whose values at each key are that column's.  Column
    blocks are the one record path.  A column is an int64 column
    (``_is_int_column``), whose rows are lists of ints formatted by
    ``_int_rows``, or a list of ``_SCALARS``, written by one C encoder call,
    since its producer bounds its length, and split back into values on the
    item separator ``"," + inner``: it holds a newline, which
    ``encode_basestring_ascii`` escapes in every string.  The records are
    laid out around the columns' texts, after a check: a column of another
    kind raises TypeError, columns of unequal lengths AssertionError."""
    chunks: list[str] = []
    flat: dict = {}  # inner indent -> C encoder for a container of scalars

    def encode(values, inner: str) -> str:
        """The C encoder's text of ``values``, items apart by ``"," + inner``."""
        encoder = flat.get(inner)
        if encoder is None:
            # no markers and no default: a container of scalars needs neither
            encoder = flat[inner] = c_make_encoder(None, None, encode_basestring_ascii, None,
                                                   ": ", "," + inner, True, False, True)
        return "".join(encoder(values, 0))  # more than one chunk past ~50,000 items

    def column(values, key: str, inner: str) -> list[str]:
        """The text of each value of the column ``key`` as a record value at item indent ``inner``."""
        if _is_int_column(values):
            return [f"[{inner}  {p}{inner}]" if p else "[]" for p in _int_rows(values, "," + inner + "  ")]
        if isinstance(values, list) and _SCALARS.issuperset(map(type, values)):
            return encode(values, inner)[1:-1].split("," + inner) if values else []
        raise TypeError(f"column {key!r} of a column block is neither int64 rows nor a list of scalars")

    def write_rows(block: dict, indent: str, lead: str) -> bool:
        """Write the records of the column block ``block``, the first after
        ``lead`` and the last left open; False if there are none."""
        inner, field = indent + "  ", indent + "    "
        keys = sorted(block)
        texts = [column(block[key], key, field) for key in keys]
        if len(set(map(len, texts))) > 1:
            raise AssertionError("unequal columns: " + ", ".join(f"{k!r} {len(t)}" for k, t in zip(keys, texts)))
        n = len(texts[0]) if texts else 0
        if not n:
            return False
        # row i is pieces[i * width:(i + 1) * width]: each key's head, then its text
        opening = f"{{{field}{encode_basestring_ascii(keys[0])}: "
        heads = [f"{inner}}},{inner}{opening}"] + [f",{field}{encode_basestring_ascii(key)}: " for key in keys[1:]]
        width = 2 * len(keys)
        pieces = [""] * (width * n)
        for k, (head, column_texts) in enumerate(zip(heads, texts)):
            pieces[2 * k::width] = [head] * n
            pieces[2 * k + 1::width] = column_texts
        pieces[0] = lead + opening
        chunks.extend(pieces)
        return True

    def write_list(blocks, indent: str, stream: bool) -> None:
        """Write the items of ``blocks`` as one list: a column block's records
        by ``write_rows``, the items of any other block by ``write``.  In a
        ``stream`` each nonempty block's text goes to the sink before the
        next is read."""
        inner = indent + "  "
        lead, close = "[" + inner, None  # text before the next item; after the last
        for block in blocks:
            if isinstance(block, dict):
                if not write_rows(block, indent, lead):
                    continue
                lead, close = f"{inner}}},{inner}", inner + "}" + indent + "]"
            elif block:
                for item in block:
                    chunks.append(lead)
                    write(item, inner)
                    lead, close = "," + inner, indent + "]"
            else:
                continue
            if stream and sink is not None:
                sink("".join(chunks))
                chunks.clear()
        chunks.append("[]" if close is None else close)

    def write(obj, indent: str) -> None:
        if isinstance(obj, Iterator):
            write_list(obj, indent, True)
            return
        if not isinstance(obj, (dict, list, tuple)):
            chunks.append(encode_basestring_ascii(obj) if isinstance(obj, str) else json.dumps(obj))
            return
        is_dict = isinstance(obj, dict)
        if not obj:
            chunks.append("{}" if is_dict else "[]")
            return
        inner = indent + "  "
        if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
            text = encode(obj, inner)
            chunks.extend((text[0], inner, text[1:-1], indent, text[-1]))
            return
        if not is_dict:
            write_list((obj,), indent, False)
            return
        sep = "{" + inner
        for key, item in sorted(obj.items()):
            chunks.extend((sep, encode_basestring_ascii(key), ": "))
            write(item, inner)
            sep = "," + inner
        chunks.extend((indent, "}"))

    write(obj, "\n")
    if sink is None:
        return "".join(chunks)
    sink("".join(chunks))
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_roots(args) -> int:
    doc = rootsys.to_json_dict(rootsys.build_named(args.type))
    roots = doc["positive_roots"]
    # the records as one column block: the lists of ints as int64 rows, the scalars as lists
    columns = {key: [root[key] for root in roots] for key in roots[0]}
    doc["positive_roots"] = iter([{key: np.array(values, dtype=np.int64) if isinstance(values[0], list) else values
                                   for key, values in columns.items()}])
    _emit(args, partial(to_json, doc))
    return 0


def _write_csv(blocks, write: Sink) -> None:
    """The CSV of the ``rows`` column blocks of a ``corelat cores`` document,
    one write per block: coordinates, size and the partition with its
    commas as spaces, no partition outside types A and C."""
    write("coords,size,partition")
    for block in blocks:
        coords = map(str, map(tuple, block["coords"].tolist()))
        parts = (f"[{p}]" for p in _int_rows(block["partition"], "  ")) if "partition" in block else repeat('""')
        write("".join(f'\n"{q}",{size},{part}' for q, size, part in zip(coords, block["size"], parts)))


def cmd_cores(args) -> int:
    with sommers.capped(_cap(args)):
        # every check of the region runs here; the rows come after, one block at a time
        doc = sommers.enumerate_cores(rootsys.build_named(args.type), args.b).document()
    _emit(args, partial(_write_csv, doc["rows"]) if args.format == "csv" else partial(to_json, doc))
    return 0


def cmd_draw(args) -> int:
    svg = draw.region_svg(rootsys.build_named(args.type), args.b)
    _emit(args, lambda write: write(svg))
    return 0


def cmd_verify(args) -> int:
    with sommers.capped(_cap(args)):
        report = verify.run(args.theorem, types=args.type, bs=args.b,
                            count=args.count, length=args.length)
    _emit(args, partial(to_json, report))
    return 0 if report["pass"] else FAILED


# ---------------------------------------------------------------------------

def _bs(text: str) -> tuple[int, ...]:
    """The values of --b; each suite refuses one that is not positive."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Parses share no state: each fills
    a new namespace, and the append action of --type copies its list."""
    parser = argparse.ArgumentParser(prog="corelat",
                                     description="Exact lattice-point machinery for "
                                                 "affine Weyl groups and core partitions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="print root system data as JSON")
    p_roots.add_argument("type")
    p_roots.add_argument("--out")
    p_roots.set_defaults(func=cmd_roots)

    p_cores = sub.add_parser("cores", help="list the b-region lattice points")
    p_cores.add_argument("type")
    p_cores.add_argument("b", type=int)
    p_cores.add_argument("--format", choices=("json", "csv"), default="json")
    p_cores.add_argument("--cap")
    p_cores.add_argument("--out")
    p_cores.set_defaults(func=cmd_cores)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("theorem")
    p_verify.add_argument("--type", action="append")
    p_verify.add_argument("--b", type=_bs)
    p_verify.add_argument("--cap")
    p_verify.add_argument("--count", type=int)
    p_verify.add_argument("--length", type=int)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_draw = sub.add_parser("draw", help="SVG picture of a rank-2 b-region")
    p_draw.add_argument("type")
    p_draw.add_argument("--b", type=int, required=True)
    p_draw.add_argument("--out")
    p_draw.set_defaults(func=cmd_draw)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return FAILED


if __name__ == "__main__":
    sys.exit(main())
