"""One module per workload.

Each module defines `Workload(root, seed, tiny)`, whose constructor is the
set-up (imports, inputs, trees, anchors), and `off_by_one(inp)`, which returns
an input whose expected value is deliberately wrong, for the self-test.  A
workload object provides:

- `warmup()`: inputs run, and checked, before timing starts;
- `inputs(cycle)`: the op inputs of one cycle, made from the seed alone;
- `run(inp, rec)`: one op, calling the program through the recorder;
- `check(inp, out)`: the oracle, returning a list of failures;
- `close()`: release what the set-up made;
- `ROUND_CYCLES`: cycles in one round, a multiple of run.PARTS;
- `RSS_OF_CHILDREN`: whether peak memory is that of child processes.
"""
