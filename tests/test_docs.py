import importlib
import re
from collections import Counter
from pathlib import Path

from rfensemble import cli

DOCS = Path(__file__).resolve().parents[1] / "docs" / "formula_map.md"
SCHEMA = DOCS.parent / "config_schema.md"

# operations that must each appear exactly once in the formula map
REQUIRED = [
    "rfensemble.spectrum.activation_coeffs",
    "rfensemble.spectrum.mp_spectral_model",
    "rfensemble.spectrum.empirical_spectral_model",
    "rfensemble.channels.teacher_z0",
    "rfensemble.channels.teacher_dz0",
    "rfensemble.channels.prox_square",
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


def schema_table_keys():
    """Backticked names in the first column of the config schema's tables: (top-level, simulate.*)."""
    top, sim = set(), set()
    section = ""
    for line in SCHEMA.read_text().splitlines():
        if line.startswith("## "):
            section = line
        elif line.startswith("| `"):
            keys = re.findall(r"`([^`]+)`", line.split("|")[1])
            (sim if section.startswith("## Simulate block") else top).update(keys)
    return top, sim


def test_config_schema_tables_match_the_known_keys():
    top, sim = schema_table_keys()
    assert sorted(top - cli._CONFIG_KEYS) == [], "documented keys the CLI rejects"
    assert sorted(cli._CONFIG_KEYS - top) == [], "known keys with no row in docs/config_schema.md"
    assert sorted(sim - cli._SIMULATE_KEYS) == [], "documented simulate keys the CLI rejects"
    assert sorted(cli._SIMULATE_KEYS - sim) == [], "known simulate keys with no row in docs/config_schema.md"
