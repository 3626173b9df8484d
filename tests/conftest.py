import pytest

import treegray.generator
from treegray import Case


@pytest.fixture
def broken_next_leftmost(monkeypatch):
    """Make plan_step return a wrong next leftmost index after level 6's
    tree 3, 1,2,2,2,3,2 (index 2, not 1), which breaks the boundary after
    its block at level 7."""
    real = treegray.generator.plan_step

    def plan_step(cur, nxt, lm):
        case, order, nl = real(cur, nxt, lm)
        if cur.levels == (1, 2, 2, 2, 3, 2):
            assert nl == 1
            return case, order, 2
        return case, order, nl

    monkeypatch.setattr(treegray.generator, "plan_step", plan_step)


@pytest.fixture
def broken_child_index(monkeypatch):
    """Make plan_step order the children of level 6's tree 3, 1,2,2,2,3,2
    (rpl 1), with an out-of-range last index 3, so ValueError is raised when
    level 7 reaches that child: by Node.child below the top, and at the top
    by _blocks, before it hands out the block."""
    real = treegray.generator.plan_step

    def plan_step(cur, nxt, lm):
        case, order, nl = real(cur, nxt, lm)
        if cur.levels == (1, 2, 2, 2, 3, 2):
            return case, order[:-1] + (3,), nl
        return case, order, nl

    monkeypatch.setattr(treegray.generator, "plan_step", plan_step)


@pytest.fixture
def forbidden_case(monkeypatch):
    """Make plan_step select the forbidden label 4b3 for level 6's tree 3,
    1,2,2,2,3,2, so the block planned for it at level 7 raises
    ForbiddenCaseError."""
    real = treegray.generator.plan_step

    def plan_step(cur, nxt, lm):
        if cur.levels == (1, 2, 2, 2, 3, 2):
            return Case.C4B3, (), 0
        return real(cur, nxt, lm)

    monkeypatch.setattr(treegray.generator, "plan_step", plan_step)
