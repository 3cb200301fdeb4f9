"""Shared exception types."""

from __future__ import annotations

# the default cap of every resource guard: brute-force vectors for the
# oracle, live coefficient slots for the polynomial sweep
DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """A resource guard tripped before the computation started.

    `required` is the number of units the request would need (enumerated
    vectors for the brute-force oracle, live big-integer slots for the
    generating-function sweeps); `budget` is the configured cap.
    """

    def __init__(self, required: int, budget: int, what: str = "work"):
        self.required = required
        self.budget = budget
        self.what = what
        super().__init__(f"budget exceeded: {what} needs {required}, cap is {budget}")
