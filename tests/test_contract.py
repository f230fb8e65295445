"""README's library contract, rule by rule.

Each rule of README's "Library contract" carries a key in brackets, and each test that pins a
rule names its key with ``@pytest.mark.contract(key)``, on the test itself or on one row of its
table.  The test here fails when a rule has no test naming its key, or a test names a key
that no rule carries.
"""

import importlib
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def readme_rules(text):
    """``(key or None, first line)`` of each rule of the library contract in README text ``text``:
    each paragraph after the first, which says how rules are keyed, and each bullet."""
    contract = text.split("### Library contract\n")[1].split("\n### ")[0]
    starts = [line.removeprefix("- ") for paragraph in contract.strip().split("\n\n")[1:]
              for i, line in enumerate(paragraph.splitlines()) if i == 0 or line.startswith("- ")]
    keys = [re.match(r"\[`([a-z-]+)`\] ", line) for line in starts]
    return [(key and key.group(1), line) for key, line in zip(keys, starts)]


def pinned_keys():
    """``{key: [test or table row, ...]}`` over the test modules beside this one."""
    pins = {}
    for path in sorted(TESTS.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, test in vars(module).items():
            if not name.startswith("test_") or not callable(test):
                continue
            for mark in getattr(test, "pytestmark", []):
                if mark.name == "contract":  # on the test
                    rows = [(name, mark)]
                elif mark.name == "parametrize":  # on rows of its table
                    rows = [(f"{name}[{row.id}]", row_mark) for row in mark.args[1]
                            for row_mark in getattr(row, "marks", ()) if row_mark.name == "contract"]
                else:
                    continue
                for where, pin in rows:
                    for key in pin.args:
                        pins.setdefault(key, []).append(f"{path.stem}::{where}")
    return pins


def test_each_contract_rule_is_pinned_and_each_pin_names_a_rule():
    rules = readme_rules(README.read_text(encoding="utf-8"))
    keys = [key for key, _ in rules]
    assert None not in keys, f"README rules with no key: {[line for key, line in rules if key is None]}"
    assert len(keys) == len(set(keys)), keys
    pins = pinned_keys()
    missing, unknown = sorted(set(keys) - set(pins)), sorted(set(pins) - set(keys))
    assert not missing, f"README rules no test pins: {missing}"
    assert not unknown, f"keys no README rule carries, and their pins: { {key: pins[key] for key in unknown} }"
