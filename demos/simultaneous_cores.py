"""Generalized simultaneous cores: the b-region of each type, its lattice
points, their exact sizes, and the count / mean / max formulas."""

from corelat import draw, ehrhart, rootsys, sommers

for name, b in [("A2", 4), ("C2", 5), ("G2", 5)]:
    rs = rootsys.build_named(name)
    cs = sommers.enumerate_cores(rs, b)
    value, argmax = sommers.max_size(cs)
    print(f"{name}, b = {b}: {len(cs)} lattice points in the region")
    print(f"  sizes: {sorted(int(s) for s in cs.sizes)}")
    print(f"  mean {ehrhart.expected_size(cs).mean} = (r g^/h) n (b-1)(h+b+1)/24, "
          f"max {value} at {argmax}")

print()
print("type C2, b = 5, as self-conjugate (4,5)-cores:")
for q, core in sommers.simultaneous_selfconjugate(2, 5).pairs:
    print(f"  {q} <-> {core}")

print()
print("type A2, b = 4, as (3,4)-cores:")
for q, s, parts in sommers.enumerate_cores(rootsys.build_named("A2"), 4).rows():
    print(f"  {q} <-> {parts} ({s} boxes)")

svg = draw.region_svg(rootsys.build_named("C2"), 5)
with open("c2_region.svg", "w") as fh:
    fh.write(svg)
print()
print("wrote c2_region.svg (marked points carry their size labels)")
