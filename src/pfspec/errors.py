"""Exception types shared across the package.

Every failed law carries a witness; counterexamples are the product of a
verification tool, so errors stringify with enough detail to act on.
"""


class PfspecError(Exception):
    """Base class for all package errors."""


class DuplicateElement(PfspecError):
    pass


class CycleError(PfspecError):
    """Antisymmetry violated: two distinct elements below each other."""


class NotALattice(PfspecError):
    def __init__(self, kind, pair):
        self.kind = kind  # "join" or "meet"
        self.pair = pair
        super().__init__(f"no {kind} for pair {pair}")


class NotMonotone(PfspecError):
    def __init__(self, witness, detail=""):
        self.witness = witness
        super().__init__(f"map not monotone at {witness}{': ' + detail if detail else ''}")


class NotJoinPreserving(PfspecError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map does not preserve joins at {witness}")


class LawViolation(PfspecError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"{law} violated at {witness}")


class NotSupercontinuous(PfspecError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not supercontinuous: witness element {witness}")


class NotDistributive(PfspecError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not distributive: witness triple {witness}")


class NotTwoSided(PfspecError):
    pass


class CapExceeded(PfspecError):
    def __init__(self, what, size, cap):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds cap {cap}")


class ParseError(PfspecError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnknownReference(PfspecError):
    def __init__(self, name, line=None):
        self.name = name
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown reference {name!r}{where}")


class NonTotalTable(PfspecError):
    def __init__(self, name, expected, got):
        super().__init__(f"table {name!r} has {got} entries, expected {expected}")
