"""Tour of the four basic-block families and their rendered source.

Each block is an interior instruction pattern wrapped in a counted loop;
the knobs (stride, function count, branch threshold, arithmetic mix)
steer one group of hardware-counter metrics at a time.
"""

import proxybench as pb

# ----------------------------------------------------------------------
# Build one block per family and look at its synthetic calibration.

mem = pb.make_memory_block(stride=4096, buffer=64 * 2**20)
fn = pb.make_function_block(stride=1024, count=512)
br = pb.make_branch_block(threshold=512)
ar = pb.make_arith_block((("div", 8),))

for spec in (mem, fn, br, ar):
    profile = pb.synthetic_profile(spec)
    counts = profile.counts
    print(spec.describe())
    print(f"  cpi              {counts['cycles'] / counts['instructions']:.2f}")
    print(f"  l1d miss rate    {counts['l1d_misses'] / counts['l1d_accesses']:.4f}")
    print(f"  branch miss rate {counts['branch_misses'] / counts['branch_insts']:.4f}")
    print(f"  dtlb miss rate   {counts['dtlb_misses'] / counts['dtlb_accesses']:.5f}")
    print(f"  itlb miss rate   {counts['itlb_misses'] / counts['itlb_accesses']:.5f}")

# ----------------------------------------------------------------------
# Sweeping a knob moves its metric monotonically: stride vs L1D misses.

print("\nstride sweep (64 MiB buffer):")
for stride in (8, 64, 512, 4096):
    counts = pb.synthetic_profile(pb.make_memory_block(stride, 64 * 2**20)).counts
    rate = counts["l1d_misses"] / counts["l1d_accesses"]
    print(f"  stride {stride:>5}: l1d miss rate {rate:.4f}")

# ----------------------------------------------------------------------
# Every block renders to plain C: a counted exterior loop around the
# family's interior.  The bound is the execution count.  A block's
# calibration source is the proxy of that block alone.

print("\none-block proxy of the branch block (300000 iterations):")
print(pb.render_program(pb.ProxyProgram(((br.id, 300000),)), pb.library_from_specs([br])))

# ----------------------------------------------------------------------
# The default library is a fixed parameter sweep, calibrated and ready.

library = pb.default_library()
print(f"default library: {len(library)} blocks, n0={library.n0}")
for block_id in library.ids():
    print(" ", library.blocks[block_id].describe())
