"""Appearance-memory protocol: adopt, blend, freeze, re-blend.

The memory starts empty, adopts the first confidently-seen feature as
its one feature vector, then blends new candidates in by the gated
weight. Invalid steps freeze the vector bit-for-bit while still counting
against the history mean.
"""

import numpy as np

from polartrack import PolarGrid, TargetMemory, confidence, memory_similarity, update_memory

# one-cell grid keeps the walkthrough readable: token 0 = seen, 1 = not
grid = PolarGrid(r_min=1.0, r_max=2.0, n_angle=1, n_dist=1)
SEEN, UNSEEN = 0, grid.invalid_index


def sharp(logit):  # logits of chosen sharpness over the 2-token vocabulary
    return np.array([logit, 0.0])


target = np.array([1.0, 0.0, 0.0, 0.0])
lookalike = np.array([0.6, 0.8, 0.0, 0.0])

mem = TargetMemory.empty()
print(f"start: digest={mem.digest()}")

mem = update_memory(mem, SEEN, confidence(sharp(6.0)), target, grid)
print(f"adopt first sighting: memory={mem.slots}, digest={mem.digest()}")

noisy = target + 0.05 * np.array([1.0, -1.0, 1.0, -1.0])
mem = update_memory(mem, SEEN, confidence(sharp(6.0)), noisy, grid)
print(f"confident refinement: memory={np.round(mem.slots, 3)}")

frozen_digest = mem.digest()
for _ in range(40):
    mem = update_memory(mem, UNSEEN, 0.0, None, grid)
print(
    f"40 invalid steps: digest unchanged: {mem.digest() == frozen_digest}, "
    f"history mean now {mem.trace.mean:.3f}"
)

print(f"\nsimilarity(target)    = {memory_similarity(mem, target):+.3f}")
print(f"similarity(lookalike) = {memory_similarity(mem, lookalike):+.3f}")
print("the frozen memory still separates the two on re-detection.")

mem = update_memory(mem, SEEN, confidence(sharp(6.0)), target, grid)
print(f"\nre-detection blends hard after the slump: memory={np.round(mem.slots, 3)}")
