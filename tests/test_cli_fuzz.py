"""Seeded fuzz test of the JSON boundary.

Gallery exports are mutated at the JSON level (type swaps, deletions,
duplications, negated or scaled integers, deep nesting, long literals)
and at the byte level (invalid bytes, truncation), then run through
`cli.main`.  Whatever the input, `classify` and `verify` must end in a
documented exit code, never 3 (internal error), and a spec that
`classify` accepts must round-trip: spec_to_json(parse_spec(doc)) is a
fixed point.
"""

import json
import random

from tquot import cli, gallery
from tquot.cli import parse_spec, spec_to_json

SEED = 20181002
CASES = 160
DOCUMENTED = {0, 1, 2, 4}

# a placeholder string that a text-level mutation replaces in the encoded file
HOLE = "@hole@"


def _slots(node, out):
    """Every (container, key) pair in the tree under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        out.append((node, key))
        _slots(value, out)
    return out


def _swap(rng, value):
    choices = [0, -1, 7, 1.5, True, False, None, "x", "1/0", "-3/4", [], {}, [value], {"v": value}]
    return rng.choice([c for c in choices if type(c) is not type(value)])


def _mutate(rng, doc):
    """Mutate doc in place; returns the literal text to put in HOLE, if any."""
    slots = _slots(doc, [])
    container, key = rng.choice(slots)
    value = container[key]
    kind = rng.choice(["swap", "delete", "duplicate", "negate", "scale", "nest", "long"])
    if kind == "swap":
        container[key] = _swap(rng, value)
    elif kind == "delete":
        del container[key]
    elif kind == "duplicate":
        if isinstance(container, list):
            container.insert(key, json.loads(json.dumps(value)))
        else:
            container[key] = [value, value]
    elif kind in ("negate", "scale"):
        ints = [(c, k) for c, k in slots if type(c[k]) is int]
        if ints:
            c, k = rng.choice(ints)
            c[k] = -c[k] if kind == "negate" else c[k] * rng.choice([0, 2, -3, 10**6])
    elif kind == "nest":
        container[key] = HOLE
        depth = rng.choice([2, 50, 900, 5000])
        return "[" * depth + json.dumps(value) + "]" * depth
    else:
        container[key] = HOLE
        digits = rng.choice([639, 641, 5000])
        return rng.choice([
            "-" + "7" * digits,
            json.dumps("1/" + "3" * digits),
            json.dumps("x" * digits),
            json.dumps("²" * 40),
        ])
    return None


def _cases():
    rng = random.Random(SEED)
    exports = [spec_to_json(gallery.build(name)) for name in gallery.names()]
    for _ in range(CASES):
        doc = json.loads(json.dumps(rng.choice(exports)))
        holes = [_mutate(rng, doc) for _ in range(rng.randint(1, 3))]
        text = json.dumps(doc)
        for literal in holes:
            if literal is not None:
                text = text.replace(json.dumps(HOLE), literal, 1)
        data = text.encode()
        if rng.random() < 0.1:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice([b"\xff", b"\xc3", b""]) + data[at + 1 :]
        yield data


def test_cli_fuzz_exit_codes_and_round_trip(tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    accepted = 0
    for n, data in enumerate(_cases()):
        path.write_bytes(data)
        codes = {}
        for op, extra in (("classify", []), ("verify", ["--max-simplices", "2000"])):
            codes[op] = cli.main([op, str(path), "--format", "json", *extra])
            captured = capsys.readouterr()
            assert codes[op] in DOCUMENTED, (n, op, codes[op], captured.err[:300])
        if codes["classify"] == 0:
            accepted += 1
            once = spec_to_json(parse_spec(json.loads(data)))
            assert spec_to_json(parse_spec(once)) == once, n
    # the mutations leave some specs valid, so the round trip is exercised
    assert accepted > 0

