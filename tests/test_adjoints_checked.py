"""No adjoint escapes the finite-difference harness: each rule in
``autodiff._BACKWARD`` runs while ``wtal gradcheck``, at its default seed and
instance count, computes the gradients that it checks."""
from wtal import autodiff as ad
from wtal.cli import build_parser, gradcheck_cases


def test_every_adjoint_rule_runs_under_gradcheck(monkeypatch):
    ran = set()

    def recording(op, rule):
        def run(*args):
            ran.add(op)
            return rule(*args)
        return run

    for op, rule in list(ad._BACKWARD.items()):
        monkeypatch.setitem(ad._BACKWARD, op, recording(op, rule))
    defaults = build_parser().parse_args(["gradcheck"])
    for _, params, f in gradcheck_cases(defaults.seed, defaults.instances):
        f(params.as_dict())
    assert sorted(set(ad._BACKWARD) - ran) == []
