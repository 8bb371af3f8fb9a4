"""The partition (5, 3, 1, 1) as a 3-core: boundary word, balanced abacus,
runner levels, content classes, and the reflection action by box toggling."""

from corelat import affine, cores, models, rootsys

parts = (5, 3, 1, 1)
a = 3

bw = cores.boundary_word(parts)
print(f"partition {parts}, boundary word (positions -6..6):")
print("  ", bw.window(-6, 7))

q = cores.to_coroot(parts, a)
print(f"runner levels of the balanced flush {a}-abacus: {q}")
print(f"round trip: {cores.from_coroot(a, q)}")

counts = cores.content_counts(parts, a)
print(f"boxes per content class (col - row mod {a}): {counts}")

rs = rootsys.build_named("A2")
k = models.type_a_coords_from_ambient(q)
print("the same counts from the lattice statistic:",
      tuple(map(int, affine.size_vector_lattice(rs, k))))

print()
print("toggling all boxes of one content class is the reflection action:")
for i in range(a):
    moved = cores.toggle_action(parts, a, i)
    print(f"  s_{i}: {parts} -> {moved}, runner levels {cores.to_coroot(moved, a)}")

print()
print("conjugation reverses and negates the runner levels:")
print(f"  {parts}^T = {cores.conjugate(parts)}, "
      f"levels {cores.to_coroot(cores.conjugate(parts), a)} "
      f"= reverse-negate of {q}")
