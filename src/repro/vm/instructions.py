"""The VM instruction set.

A register ``val`` holds the current value; each frame has an operand stack
for arguments under construction and a vector of local slots (parameters
first, then ``let``-allocated temporaries — the compiler's ``depth``
parameter tracks the next free slot, as in the Scheme 48 compiler).
"""

from __future__ import annotations

from enum import IntEnum, auto


class Op(IntEnum):
    """Opcodes.  Operand meanings are given per opcode."""

    CONST = auto()            # k       : val <- literals[k]
    LOCAL = auto()            # i       : val <- locals[i]
    CLOSED = auto()           # i       : val <- closure.env[i]
    GLOBAL = auto()           # k       : val <- globals[literals[k]]
    PUSH = auto()             #         : push val onto the operand stack
    SETLOC = auto()           # i       : locals[i] <- val
    PRIM = auto()             # k n     : pop n args; val <- literals[k](args)
    MAKE_CLOSURE = auto()     # k n     : pop n values; val <- closure(literals[k], values)
    JUMP = auto()             # t       : pc <- t
    JUMP_IF_FALSE = auto()    # t       : if val is #f then pc <- t
    CALL = auto()             # n       : pop n args + operator; push return continuation
    TAIL_CALL = auto()        # n       : pop n args + operator; reuse the frame
    RETURN = auto()           #         : pop continuation (or halt with val)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


# Opcode values as plain ints.  Code vectors hold these, never ``Op``
# members: loading an ``Op`` member and comparing it costs several times
# an int compare, and tuples of plain ints are untracked by the cyclic
# GC.  ``Op`` names opcodes (disassembly, errors) and keys the dispatch
# table; consumers of code vectors compare by value against these.
CONST = int(Op.CONST)
LOCAL = int(Op.LOCAL)
CLOSED = int(Op.CLOSED)
GLOBAL = int(Op.GLOBAL)
PUSH = int(Op.PUSH)
SETLOC = int(Op.SETLOC)
PRIM = int(Op.PRIM)
MAKE_CLOSURE = int(Op.MAKE_CLOSURE)
JUMP = int(Op.JUMP)
JUMP_IF_FALSE = int(Op.JUMP_IF_FALSE)
CALL = int(Op.CALL)
TAIL_CALL = int(Op.TAIL_CALL)
RETURN = int(Op.RETURN)

# Every base opcode value (an image or template may carry no other).
BASE_OPCODES = frozenset(int(op) for op in Op)

# Opcodes whose single operand is a literal-frame index.
LITERAL_OPERAND_OPS = frozenset({CONST, GLOBAL})

# Opcodes whose first operand is a literal-frame index and second is a count.
LITERAL_COUNT_OPS = frozenset({PRIM, MAKE_CLOSURE})

# Opcodes whose operand is a jump target.
BRANCH_OPS = frozenset({JUMP, JUMP_IF_FALSE})
