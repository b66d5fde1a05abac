"""Fixture: a local legitimacy predicate that reads a non-neighbor through the
view's private configuration handle.  Exactly one RL004."""


class FarPredicate:
    """Broken layer: every processor's term compares itself with processor 0."""

    name = "far-predicate"

    def variables(self, network, node):
        return [int_variable("fp_x", 0)]

    def actions(self, network, node):
        def guard(view):
            return view.read("fp_x") != 0

        def step(view):
            view.write("fp_x", 0)

        return [Action("FP-Reset", guard, step, layer=self.name)]

    def local_legitimacy(self, network):
        def term(view):
            far = view._configuration.get(0, "fp_x")
            return (int(far != view.read("fp_x")),), None

        return LocalLegitimacy(term)
