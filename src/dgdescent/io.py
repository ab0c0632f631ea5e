"""Record formats: exact, language-neutral JSON for algebras and covers.

Scalars serialize as strings "p/q" (or "p"); labels are strings, or
nested lists for the tuple labels of tensor/product algebras.  Parse
errors name the file and the offending field.  Reports are plain JSON
with sorted keys and no floats anywhere, so a fixed seed reproduces a
byte-identical file.
"""

import functools
import json
import re
from fractions import Fraction

from .cochain import Cochain, GradedSpace
from .dgla import ArtinAlgebra, DgLieAlgebra, DgLieMap, identity_map
from .linalg import lower


class ParseError(ValueError):
    def __init__(self, path, field, message):
        self.path = path
        self.field = field
        super().__init__(f"{path}: field {field!r}: {message}")


# defined beside ParseError so that the command line can report both
# without importing the totalization it may not run
class TruncationError(ValueError):
    """A cosimplicial algebra truncated below the levels a construction
    needs, or a truncation or degree bound above what it can use."""


# ASCII only: str.isdigit and \d also accept other scripts' digits
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def scalar_to_str(x):
    x = lower(x)
    if type(x) is int:
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s, path="<record>", field="coeff"):
    """A JSON integer, or a string "p" or "p/q" of ASCII digits with an
    optional leading minus sign, as an int when it is integral and a
    Fraction otherwise."""
    if isinstance(s, float):
        raise ParseError(path, field,
                         f"floats are not exact; write {s!r} as \"p/q\"")
    if isinstance(s, int) and not isinstance(s, bool):
        return int(s)
    if not isinstance(s, str) or not _SCALAR.fullmatch(s):
        raise ParseError(path, field, f"bad rational {s!r}: expected an "
                         f"integer or a string \"p\" or \"p/q\"")
    try:
        return lower(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, field, f"bad rational {s!r}: {exc}")


def label_to_json(label):
    if isinstance(label, tuple):
        return [label_to_json(x) for x in label]
    return label


def label_from_json(x, path="<record>", field="label"):
    if isinstance(x, list):
        return tuple(label_from_json(y, path, field) for y in x)
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return x
    raise ParseError(path, field, f"a label is a string, an integer or a "
                     f"list of labels, not {x!r}")


def record_type(rec, path):
    """The type field of a record that must be a JSON object."""
    if not isinstance(rec, dict):
        raise ParseError(path, "-", f"expected a JSON object, not "
                         f"{type(rec).__name__}")
    return rec.get("type")


def _object_list(val, path, field):
    if not isinstance(val, list) or not all(isinstance(e, dict) for e in val):
        raise ParseError(path, field, "expected a list of objects")
    return val


def _objects(rec, key, path, field=None):
    """The list of JSON objects under rec[key]; empty if key is absent."""
    return _object_list(rec.get(key, []), path, field or key)


def _required(entry, key, path, field):
    if key not in entry:
        raise ParseError(path, field, "missing")
    return entry[key]


def _look(index, path, entry, key, field):
    """index[the basis label under entry[key]]."""
    lab = label_from_json(_required(entry, key, path, field), path, field)
    if lab not in index:
        raise ParseError(path, field, f"unknown basis label {lab!r}")
    return index[lab]


def _product_entries(rec, key, look, path):
    """{(i, j): {k: coeff}} from the entries {"left", "right", "value":
    [{"basis", "coeff"}, ...]} listed under rec[key]: the brackets of an
    algebra record, the products of an artin record.  A pair or a value
    term listed twice is refused, never summed or overwritten."""
    out = {}
    for entry in _objects(rec, key, path):
        ij = (look(entry, "left", f"{key}.left"),
              look(entry, "right", f"{key}.right"))
        if ij in out:
            raise ParseError(path, key, f"the pair ({entry['left']!r}, "
                             f"{entry['right']!r}) is listed twice")
        val = {}
        for term in _objects(entry, "value", path, f"{key}.value"):
            k = look(term, "basis", f"{key}.value.basis")
            if k in val:
                raise ParseError(path, f"{key}.value.basis",
                                 f"basis label {term['basis']!r} is listed "
                                 f"twice in the value of ({entry['left']!r}, "
                                 f"{entry['right']!r})")
            val[k] = scalar_from_str(
                _required(term, "coeff", path, f"{key}.value.coeff"),
                path, f"{key}.value.coeff")
        out[ij] = val
    return out


def _indices(entry, key, path, field):
    """The set of open indices listed under entry[key]."""
    val = _required(entry, key, path, field)
    if not isinstance(val, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in val):
        raise ParseError(path, field, "expected a list of open indices")
    return frozenset(val)


# ---------------------------------------------------------------------------
# dg Lie algebras


def algebra_to_record(g):
    basis = []
    for gi in range(g.total_dim()):
        basis.append({"label": label_to_json(g.space.label_of(gi)),
                      "degree": g.degree_of(gi)})
    differential = []
    for gi in sorted(g.d_table):
        for gj, c in sorted(g.d_table[gi].items()):
            differential.append({"from": label_to_json(g.space.label_of(gi)),
                                 "to": label_to_json(g.space.label_of(gj)),
                                 "coeff": scalar_to_str(c)})
    brackets = []
    for (i, j) in sorted(g.table):
        if i > j:
            continue   # the flip is determined by antisymmetry
        val = g.table[(i, j)]
        brackets.append({
            "left": label_to_json(g.space.label_of(i)),
            "right": label_to_json(g.space.label_of(j)),
            "value": [{"basis": label_to_json(g.space.label_of(k)),
                       "coeff": scalar_to_str(c)}
                      for k, c in sorted(val.items())]})
    return {"type": "dg_lie_algebra", "name": g.name,
            "basis": basis, "differential": differential,
            "brackets": brackets}


def algebra_from_record(rec, path="<record>"):
    if record_type(rec, path) != "dg_lie_algebra":
        raise ParseError(path, "type", "expected dg_lie_algebra")
    degrees = {}
    for entry in _objects(rec, "basis", path):
        lab = label_from_json(_required(entry, "label", path, "basis.label"),
                              path, "basis.label")
        deg = _required(entry, "degree", path, "basis.degree")
        if not isinstance(deg, int) or isinstance(deg, bool):
            raise ParseError(path, "basis.degree",
                             f"a degree is an integer, not {deg!r}")
        degrees.setdefault(deg, []).append(lab)
    try:
        space = GradedSpace(degrees)
    except ValueError as exc:
        raise ParseError(path, "basis", str(exc))
    index = {}
    for gi in range(space.total_dim()):
        lab = space.label_of(gi)
        # references name basis elements by label alone
        if lab in index:
            raise ParseError(path, "basis", f"basis label {lab!r} is in "
                             f"degrees {space.degree_of(index[lab])} and "
                             f"{space.degree_of(gi)}")
        index[lab] = gi
    look = functools.partial(_look, index, path)
    entries = {}
    for entry in _objects(rec, "differential", path):
        src = look(entry, "from", "differential.from")
        tgt = look(entry, "to", "differential.to")
        if space.degree_of(tgt) != space.degree_of(src) + 1:
            raise ParseError(path, "differential",
                             "differential must raise degree by 1")
        if tgt in entries.get(src, {}):
            raise ParseError(path, "differential",
                             f"the entry ({entry['from']!r} -> "
                             f"{entry['to']!r}) is listed twice")
        entries.setdefault(src, {})[tgt] = scalar_from_str(
            _required(entry, "coeff", path, "differential.coeff"),
            path, "differential.coeff")
    try:
        cochain = Cochain(space, entries)
    except ValueError as exc:
        raise ParseError(path, "differential", str(exc))
    brackets = _product_entries(rec, "brackets", look, path)
    try:
        return DgLieAlgebra(cochain, brackets, name=rec.get("name"))
    except ValueError as exc:
        raise ParseError(path, "brackets", str(exc))


# ---------------------------------------------------------------------------
# artinian algebras


def artin_to_record(a):
    ideal = a.maximal_ideal()
    products = []
    # the completed table: a product given only as (j, i), j > i, is
    # written as its (i, j) partner
    for (i, j) in sorted(ideal.table):
        if i > j:
            continue
        val = ideal.table[(i, j)]
        products.append({
            "left": ideal.labels[i], "right": ideal.labels[j],
            "value": [{"basis": ideal.labels[k],
                       "coeff": scalar_to_str(c)}
                      for k, c in sorted(val.items())]})
    return {"type": "artin_algebra", "name": a.name,
            "ideal_basis": list(ideal.labels), "products": products}


def artin_from_record(rec, path="<record>"):
    if record_type(rec, path) != "artin_algebra":
        raise ParseError(path, "type", "expected artin_algebra")
    labels = rec.get("ideal_basis", [])
    if not isinstance(labels, list):
        raise ParseError(path, "ideal_basis", "expected a list of labels")
    labels = [label_from_json(x, path, "ideal_basis") for x in labels]
    look = functools.partial(_look, {lab: i for i, lab in enumerate(labels)},
                             path)
    products = _product_entries(rec, "products", look, path)
    try:
        return ArtinAlgebra(labels, products, name=rec.get("name"))
    except ValueError as exc:
        raise ParseError(path, "products", str(exc))


# ---------------------------------------------------------------------------
# covers and descent instances


def cover_to_record(cover):
    from .cech import CoverSpec
    if not isinstance(cover, CoverSpec):
        raise TypeError("cover_to_record expects a CoverSpec")
    named = {}
    names = {}
    for J, g in sorted(cover.sections.items(), key=lambda kv: sorted(kv[0])):
        if id(g) not in names:
            nm = g.name or f"sec{len(named)}"
            while nm in named:
                nm += "'"
            names[id(g)] = nm
            named[nm] = g
    intersections = []
    for J, g in sorted(cover.sections.items(), key=lambda kv: sorted(kv[0])):
        intersections.append({"indices": sorted(J),
                              "algebra": names[id(g)]})
    restrictions = []
    for (J, J2), f in sorted(cover.restrictions.items(),
                             key=lambda kv: (sorted(kv[0][0]),
                                             sorted(kv[0][1]))):
        entry = {"from": sorted(J), "to": sorted(J2)}
        space = f.source.space
        if f.source is f.target and \
                f.table == {i: {i: 1} for i in range(space.total_dim())}:
            entry["matrix"] = "identity"
        else:
            # every source degree, zero blocks too
            blocks = _map_to_matrices(f)
            entry["matrix"] = {str(n): blocks.get(str(n)) or
                               [["0"] * space.dim(n)] * f.target.space.dim(n)
                               for n in space.nonzero_degrees()}
        restrictions.append(entry)
    return {"type": "cover", "name": cover.name,
            "opens": cover.num_opens,
            "sections": {nm: algebra_to_record(g)
                         for nm, g in named.items()},
            "intersections": intersections,
            "restrictions": restrictions}


def cover_from_record(rec, path="<record>"):
    from .cech import CoverSpec, RestrictionError
    if record_type(rec, path) != "cover":
        raise ParseError(path, "type", "expected cover")
    opens = _required(rec, "opens", path, "opens")
    if not isinstance(opens, int) or isinstance(opens, bool):
        raise ParseError(path, "opens", f"expected an integer, not {opens!r}")
    records = rec.get("sections", {})
    if not isinstance(records, dict):
        raise ParseError(path, "sections", "expected an object of records")
    named = {nm: algebra_from_record(sub, path=f"{path}:sections.{nm}")
             for nm, sub in records.items()}
    sections = {}
    for entry in _objects(rec, "intersections", path):
        nm = _required(entry, "algebra", path, "intersections.algebra")
        if not isinstance(nm, str) or nm not in named:
            raise ParseError(path, "intersections.algebra",
                             f"unknown section algebra {nm!r}")
        sections[_indices(entry, "indices", path,
                          "intersections.indices")] = named[nm]
    restrictions = {}
    for entry in _objects(rec, "restrictions", path):
        J = _indices(entry, "from", path, "restrictions.from")
        J2 = _indices(entry, "to", path, "restrictions.to")
        matrix = _required(entry, "matrix", path, "restrictions.matrix")
        if J not in sections or J2 not in sections:
            raise ParseError(path, "restrictions",
                             f"restriction between unknown intersections "
                             f"{sorted(J)} -> {sorted(J2)}")
        src, tgt = sections[J], sections[J2]
        if matrix == "identity":
            if src is not tgt:
                raise ParseError(path, "restrictions.matrix",
                                 "identity shorthand needs equal section "
                                 "algebras")
            restrictions[(J, J2)] = identity_map(src)
        else:
            restrictions[(J, J2)] = _map_from_matrices(
                src, tgt, matrix, path, "restrictions.matrix")
    try:
        return CoverSpec(opens, sections, restrictions,
                         name=rec.get("name"))
    except RestrictionError as exc:
        raise ParseError(path, "restrictions", str(exc))
    except ValueError as exc:
        raise ParseError(path, "intersections", str(exc))


def _map_to_matrices(f):
    """The nonzero dense blocks of f, as record rows: block n has one
    row per target and one column per source basis element of degree
    n."""
    src, tgt = f.source.space, f.target.space
    blocks = {}
    for n in src.nonzero_degrees():
        row_of = {k: r for r, k in enumerate(tgt.degree_indices(n))}
        M = [["0"] * src.dim(n) for _ in row_of]
        for col, i in enumerate(src.degree_indices(n)):
            for k, c in f.apply({i: 1}).items():
                M[row_of[k]][col] = scalar_to_str(c)
                blocks[str(n)] = M
    return blocks


def table_from_blocks(source, target, blocks, shift=0):
    """{source gidx: {target gidx: coeff}} from the dense blocks
    {n: block}, block n: source degree n -> target degree n + shift;
    a missing block is zero."""
    table = {}
    for n, M in sorted(blocks.items()):
        targets = target.degree_indices(n + shift)
        for col, src in enumerate(source.degree_indices(n)):
            entry = {targets[r]: row[col] for r, row in enumerate(M)
                     if row[col]}
            if entry:
                table[src] = entry
    return table


def _degree(key):
    """The int that the string key is the canonical ASCII form of, or
    None."""
    try:
        n = int(key)
    except ValueError:
        return None
    return n if str(n) == key else None


def _map_from_matrices(src, tgt, matrices, path, field):
    """The DgLieMap with the given dense blocks {degree: rows}; block n
    has one row per target and one column per source basis element of
    degree n."""
    if not isinstance(matrices, dict) or not all(
            isinstance(M, list) and
            all(isinstance(row, list) and len(row) == len(M[0]) for row in M)
            for M in matrices.values()):
        raise ParseError(path, field, "expected an object mapping degrees "
                         "to lists of rows of equal length")
    blocks = {}
    for key, M in matrices.items():
        n = _degree(key)
        if n is None:
            # "01" or a non-ASCII digit would read as another key's
            # degree and overwrite its block
            raise ParseError(path, field, f"degree {key!r} is not written "
                             f"as a plain integer, like \"1\" or \"-1\"")
        shape = (tgt.space.dim(n), src.space.dim(n))
        if len(M) != shape[0] or (M and len(M[0]) != shape[1]):
            raise ParseError(path, field, f"block {n} has shape {len(M)}x"
                             f"{len(M[0]) if M else 0}, expected "
                             f"{shape[0]}x{shape[1]}")
        blocks[n] = [[scalar_from_str(x, path, field) for x in row]
                     for row in M]
    try:
        return DgLieMap(src, tgt, table_from_blocks(src.space, tgt.space,
                                                    blocks))
    except ValueError as exc:
        raise ParseError(path, field, str(exc))


def cosimplicial_to_record(cc):
    return {
        "type": "cosimplicial_dg_lie",
        "name": cc.name,
        "levels": [algebra_to_record(g) for g in cc.levels],
        "cofaces": [[_map_to_matrices(f) for f in maps]
                    for maps in cc.cofaces],
        "codegeneracies": [[_map_to_matrices(f) for f in maps]
                           for maps in cc.codegens],
    }


def cosimplicial_from_record(rec, path="<record>"):
    from .tot import CosimplicialDgLie
    if record_type(rec, path) != "cosimplicial_dg_lie":
        raise ParseError(path, "type", "expected cosimplicial_dg_lie")
    levels = [algebra_from_record(sub, path=f"{path}:levels[{q}]")
              for q, sub in enumerate(_objects(rec, "levels", path))]
    if not levels:
        raise ParseError(path, "levels", "expected at least one level")
    # counts first: the maps below index the levels they connect
    for field in ("cofaces", "codegeneracies"):
        lists = rec.get(field, [])
        if not isinstance(lists, list) or not all(
                isinstance(maps, list) for maps in lists):
            raise ParseError(path, field, "expected a list of lists of maps")
        if len(lists) != len(levels) - 1:
            raise ParseError(path, field,
                             f"expected {len(levels) - 1} lists of maps, "
                             f"one per adjacent pair of levels, not "
                             f"{len(lists)}")
    cofaces = []
    for q, maps in enumerate(rec.get("cofaces", [])):
        cofaces.append([
            _map_from_matrices(levels[q], levels[q + 1], m, path,
                               f"cofaces[{q}][{i}]")
            for i, m in enumerate(maps)])
    codegens = []
    for q, maps in enumerate(rec.get("codegeneracies", [])):
        codegens.append([
            _map_from_matrices(levels[q + 1], levels[q], m, path,
                               f"codegeneracies[{q}][{i}]")
            for i, m in enumerate(maps)])
    try:
        return CosimplicialDgLie(levels, cofaces, codegens,
                                 name=rec.get("name"))
    except ValueError as exc:
        raise ParseError(path, "cosimplicial structure", str(exc))


def instance_to_record(name, cover, base):
    return {"type": "descent_instance", "name": name,
            "cover": cover_to_record(cover),
            "base": artin_to_record(base)}


def instance_from_record(rec, path="<record>"):
    if record_type(rec, path) != "descent_instance":
        raise ParseError(path, "type", "expected descent_instance")
    cover = cover_from_record(_required(rec, "cover", path, "cover"),
                              path=f"{path}:cover")
    base = artin_from_record(_required(rec, "base", path, "base"),
                             path=f"{path}:base")
    return rec.get("name"), cover, base


# ---------------------------------------------------------------------------
# elements


def element_to_record(g, el):
    return [{"basis": label_to_json(g.space.label_of(k)),
             "coeff": scalar_to_str(v)} for k, v in sorted(el.items())]


def element_from_record(g, rec, path="<record>"):
    index = {}
    for gi in reversed(range(g.total_dim())):   # the first index of a label
        index[g.space.label_of(gi)] = gi
    out = {}
    for term in _object_list(rec, path, "element"):
        gi = _look(index, path, term, "basis", "element.basis")
        if gi in out:
            raise ParseError(path, "element.basis", f"basis label "
                             f"{g.space.label_of(gi)!r} is listed twice")
        out[gi] = scalar_from_str(
            _required(term, "coeff", path, "element.coeff"), path,
            "element.coeff")
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# files


def _unique_keys(path, pairs):
    # json.load keeps the last of repeated keys; a record means one
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(path, key, "repeated key in one JSON object")
    return obj


def load_record(path):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=functools.partial(
                _unique_keys, path))
    except OSError as exc:      # missing, a directory, unreadable, ...
        raise ParseError(path, "-", exc.strerror or str(exc))
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}, column {exc.colno}",
                         exc.msg)
    except ParseError:
        raise
    except ValueError as exc:   # an integer literal too long to convert
        raise ParseError(path, "-", str(exc))


def dump_record(rec, path=None):
    text = json.dumps(rec, sort_keys=True, indent=2) + "\n"
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, no permission, ...
            raise ParseError(path, "-", exc.strerror or str(exc))
    return text


def load_any(path):
    """Dispatch a record file on its type field."""
    rec = load_record(path)
    kind = record_type(rec, path)
    if kind == "dg_lie_algebra":
        return kind, algebra_from_record(rec, path)
    if kind == "artin_algebra":
        return kind, artin_from_record(rec, path)
    if kind == "cover":
        return kind, cover_from_record(rec, path)
    if kind == "descent_instance":
        return kind, instance_from_record(rec, path)
    if kind == "cosimplicial_dg_lie":
        return kind, cosimplicial_from_record(rec, path)
    raise ParseError(path, "type", f"unknown record type {kind!r}")
