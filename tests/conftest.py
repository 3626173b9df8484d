import pytest

import treegray.generator


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
