import importlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

from rfensemble import ConfigError, SolveOptions, cli

DOCS = Path(__file__).resolve().parents[1] / "docs" / "formula_map.md"
SCHEMA = DOCS.parent / "config_schema.md"

# operations that must each appear exactly once in the formula map
REQUIRED = [
    "rfensemble.spectrum.activation_coeffs",
    "rfensemble.spectrum.mp_spectral_model",
    "rfensemble.channels.teacher_z0",
    "rfensemble.channels.teacher_dz0",
    "rfensemble.channels.prox_logistic",
    "rfensemble.channels.prox_hinge",
    "rfensemble.channels.channel_update",
    "rfensemble.channels.channel_update_hinge_closed_form",
    "rfensemble.channels.training_loss",
    "rfensemble.priors.prior_update_spectral",
    "rfensemble.priors.kernel_channel_update",
    "rfensemble.priors.kernel_prior_update",
    "rfensemble.solver.solve_fixed_point",
    "rfensemble.solver.solve_kernel_limit",
    "rfensemble.observables.mse_test_error",
    "rfensemble.observables.classification_error_avg",
    "rfensemble.observables.disagreement_probability",
    "rfensemble.observables.generic_gen_error",
    "rfensemble.observables.majority_vote_error",
    "rfensemble.observables.confidence_density",
    "rfensemble.observables.ensemble_test_error",
    "rfensemble.erm_lab.train_ridge",
    "rfensemble.erm_lab.train_logistic",
    "rfensemble.erm_lab.empirical_overlaps",
    "rfensemble.erm_lab.square_test_error_erf",
]


def map_references():
    text = DOCS.read_text()
    return re.findall(r"`(rfensemble\.[A-Za-z0-9_.]+)`", text)


def test_every_reference_resolves():
    for ref in set(map_references()):
        module_path, attr = ref.rsplit(".", 1)
        module = importlib.import_module(module_path)
        assert hasattr(module, attr), f"{ref} does not resolve"


def test_required_operations_each_appear_exactly_once():
    counts = Counter(map_references())
    missing = [ref for ref in REQUIRED if counts[ref] == 0]
    duplicated = [ref for ref in REQUIRED if counts[ref] > 1]
    assert not missing, f"unmapped operations: {missing}"
    assert not duplicated, f"operations mapped more than once: {duplicated}"


def schema_table_rows(column="default"):
    """(keys, cell of `column`) of each row of the config schema's tables.

    The keys are the backticked names of the first column, simulate's as
    `simulate.<key>`; the cell is None in a table with no such column.
    """
    rows, section, default_col = [], "", None
    for line in SCHEMA.read_text().splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]  # `\|` is a pipe inside a cell
        if line.startswith("## "):
            section = line
        elif cells[:1] == ["key"]:
            default_col = cells.index(column) if column in cells else None
        elif line.startswith("| `"):
            prefix = "simulate." if section.startswith("## Simulate block") else ""
            keys = [prefix + key for key in re.findall(r"`([^`]+)`", cells[0])]
            rows.append((keys, None if default_col is None else cells[default_col]))
    return rows


def schema_table_keys():
    """Backticked names in the first column of the config schema's tables: (top-level, simulate.*)."""
    top, sim = set(), set()
    for keys, _ in schema_table_rows():
        for key in keys:
            path, _, name = key.rpartition(".")
            (sim if path else top).add(name)
    return top, sim


def table_keys():
    """The keys of the CLI's config table: (top-level, simulate.*)."""
    top = {key for key in cli._SCHEMA if "." not in key}
    sim = {key.split(".", 1)[1] for key in cli._SCHEMA if key.startswith("simulate.")}
    return top, sim


def test_config_schema_tables_match_the_known_keys():
    top, sim = schema_table_keys()
    known_top, known_sim = table_keys()
    assert sorted(top - known_top) == [], "documented keys the CLI rejects"
    assert sorted(known_top - top) == [], "known keys with no row in docs/config_schema.md"
    assert sorted(sim - known_sim) == [], "documented simulate keys the CLI rejects"
    assert sorted(known_sim - sim) == [], "known simulate keys with no row in docs/config_schema.md"


def documented_defaults(cell, count):
    """The defaults a default cell gives its row's `count` keys.

    Backticked JSON values, one per key; else `required`, or
    other text (none, implied by loss) for no default.
    """
    values = re.findall(r"`([^`]+)`", cell)
    if values:
        assert len(values) == count, f"default cell {cell!r} does not give one value per key"
        return [json.loads(value) for value in values]
    return [cli._REQUIRED if cell == "required" else None] * count


def test_config_schema_defaults_match_the_table():
    checked = set()
    for keys, cell in schema_table_rows():
        assert cell is not None, f"no default column in the table of {keys}"
        for key, documented in zip(keys, documented_defaults(cell, len(keys))):
            want = cli._SCHEMA[key][1]
            assert documented is want or (type(documented) is type(want) and documented == want), (
                f"docs/config_schema.md gives {key!r} the default {cell!r}; the table has {want!r}"
            )
            checked.add(key)
    assert checked == set(cli._SCHEMA)


# the kind words a type cell may open one of its comma-separated parts with
_DOC_KINDS = {"number": float, "int": int, "string": str, "path (a string)": str, "object": dict}

# keys whose range SolveOptions checks rather than the CLI's table
SOLVE_OPTION_RANGES = ("damping", "tol", "max_iters")


def documented_type(cell):
    """(kind, exclusive lower bound, inclusive upper bound) a type cell states.

    One backticked group of JSON values split by `\\|` lists the allowed
    values, `true \\| false` being the boolean kind. Otherwise each
    comma-separated part may name a kind: a list wherever it says `list`,
    else by its opening words; a cell naming two kinds (an int or a list of
    them) is any JSON value the command checks itself. A number's bound
    follows its kind: `> a`, `>= a` (for an int the exclusive bound a - 1)
    or `in (a, b]`.
    """
    listed = re.fullmatch(r"`([^`]+)`", cell)
    if listed:
        values = tuple(json.loads(value) for value in re.split(r"\s*\\\|\s*", listed.group(1)))
        return (bool if values == (True, False) else values), None, None
    kinds = []
    for part in cell.split(", "):
        words = re.match("|".join(re.escape(word) for word in _DOC_KINDS), part)
        kinds += [list] if "list" in part else [_DOC_KINDS[words.group()]] if words else []
    assert kinds, f"type cell {cell!r} names no kind"
    if len(set(kinds)) > 1:
        return object, None, None
    kind = kinds[0]
    if kind not in (int, float):
        return kind, None, None
    interval = re.search(r"in \((-?[\d.]+), (-?[\d.]+)\]", cell)
    if interval:
        return kind, kind(interval.group(1)), kind(interval.group(2))
    bound = re.search(r"(>=?) (-?[\d.]+)", cell)
    if bound is None:
        return kind, None, None
    low = kind(bound.group(2))
    return kind, low - 1 if bound.group(1) == ">=" else low, None


def solve_options_accept(key, value):
    try:
        SolveOptions(**{key: value})
    except ConfigError:
        return False
    return True


def test_config_schema_types_match_the_table():
    checked = set()
    for keys, cell in schema_table_rows("type"):
        assert cell is not None, f"no type column in the table of {keys}"
        kind, low, high = documented_type(cell)
        for key in keys:
            want_kind, _, *want_low = cli._SCHEMA[key]
            assert kind == want_kind, f"docs/config_schema.md gives {key!r} the type {cell!r}; the table has {want_kind!r}"
            if key in SOLVE_OPTION_RANGES:
                # the documented bounds are the first values SolveOptions rejects
                above = low + 1 if kind is int else np.nextafter(low, np.inf)
                assert not solve_options_accept(key, low) and solve_options_accept(key, above), (
                    f"SolveOptions does not take {key!r} above exactly {low!r}, as {cell!r} says"
                )
                if high is not None:
                    assert solve_options_accept(key, high) and not solve_options_accept(key, np.nextafter(high, np.inf))
            else:
                assert (low, high) == (want_low[0] if want_low else None, None), (
                    f"docs/config_schema.md gives {key!r} the bounds of {cell!r}; the table has {want_low!r}"
                )
            checked.add(key)
    assert checked == set(cli._SCHEMA)


def test_config_schema_lists_the_sweep_axes():
    # `axis` is a string in the table; the sweep checks it against SWEEP_AXES
    (meaning,) = [cell for keys, cell in schema_table_rows("meaning") if keys == ["axis"]]
    assert tuple(json.loads(value) for value in re.findall(r'`("[^`]+")`', meaning)) == cli.SWEEP_AXES
