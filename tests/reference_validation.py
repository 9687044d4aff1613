"""The validation routine `distributions._checked` must agree with.

`_checked_in_full` is the routine that typed every parameter set before
`_checked` became one loop over the fields, copied here unchanged as the
oracle for the typed values, their types and the problems and their order.
"""

from anticonc.distributions import _FAMILIES, Family, ParamSet, _Params, _is_number


def checked(ps: ParamSet) -> tuple[Family, _Params, list[str]]:
    return _checked_in_full(ps, _FAMILIES[ps.family])


def _checked_in_full(ps: ParamSet, law: Family) -> tuple[Family, _Params, list[str]]:
    """_checked for any parameter set, reporting each structural problem in order."""
    problems: list[str] = []
    got = set(ps.params)
    expected = set(law.fields)
    for name in sorted(expected - got):
        problems.append(f"missing parameter {name!r}")
    for name in sorted(got - expected):
        problems.append(f"unexpected parameter {name!r}")
    typed: dict = {}
    fractional = []  # reported only once every field is present and a number
    for name in law.fields:
        if name not in ps.params:
            continue
        value = ps.params[name]
        if not _is_number(value):
            problems.append(f"parameter {name!r} must be a finite number, got {value!r}")
        elif name not in law.integer_fields:
            typed[name] = float(value)
        elif isinstance(value, int) or value.is_integer():
            typed[name] = int(value)
        else:
            fractional.append(f"{name} must be an integer")
    if problems or fractional:
        return law, ps.params, problems or fractional
    return law, typed, law.check(typed)
