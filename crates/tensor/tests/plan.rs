//! `gemm::plan` is the one rule that picks between the bit-identical
//! products, and it picks what the three cuts it replaced picked: the
//! pack-free `A·B` up to eight rows inside `sgemm`, the kept `x·Wᵀ` /
//! `dy·W` inside `sgemm_kept`, and the sampled `dyᵀ·x` the layer state
//! used to choose. The cuts are copied below as they were written, and
//! the planner must agree with them on every op, rows 0 to 600, weights
//! from empty to 2048², and kept counts on both sides of every density
//! cut — the evidence that no workload changed path.

use tensor::gemm::{plan, Op, Path};

/// The three predicates, verbatim, with their constants.
const THIN_MAX_M: usize = 8;
const KEPT_DENSITY_CUT: usize = 5;
const KEPT_MIN_ROWS: [usize; 2] = [5, 2];
const SAMPLED_MAX_K: usize = 256;
const SAMPLED_MAX_KEPT_ROWS: usize = 2;

fn kept_pays(rows: usize, nnz: usize, numel: usize, transb: bool) -> bool {
    rows >= KEPT_MIN_ROWS[usize::from(transb)] && KEPT_DENSITY_CUT * nnz <= numel
}

fn sampled_pays(k: usize, nnz: usize, numel: usize) -> bool {
    k <= SAMPLED_MAX_K && k * nnz <= SAMPLED_MAX_KEPT_ROWS * numel
}

/// The path the entries ran before: `compress_grad_product` on
/// `sampled_pays`; `sgemm_kept` on `kept_pays`, except that an empty
/// weight fell back to `sgemm`; and `sgemm` on `m <= THIN_MAX_M` for an
/// untransposed product.
fn before(op: Op, rows: usize, nnz: usize, numel: usize) -> Path {
    match op {
        Op::Tn if sampled_pays(rows, nnz, numel) => Path::Sampled,
        Op::Tn => Path::RowBlocks,
        _ if kept_pays(rows, nnz, numel, op == Op::Nt) && numel > 0 => Path::Kept,
        Op::Nn if rows <= THIN_MAX_M => Path::PackFree,
        _ => Path::Packed,
    }
}

#[test]
fn the_planner_picks_what_the_three_cuts_picked() {
    for numel in [0usize, 1, 4_096, 262_144, 4_194_304] {
        let counts = [0, 1, numel / 20, numel / 10, numel / 5, numel / 5 + 1, numel / 2, numel];
        for op in [Op::Nn, Op::Nt, Op::Tn] {
            for rows in 0..=600 {
                for nnz in counts {
                    let want = before(op, rows, nnz, numel);
                    assert_eq!(plan(op, rows, nnz, numel), want, "{op:?}, {rows} rows, {nnz} of {numel} kept");
                }
            }
        }
    }
}

#[test]
fn a_dense_operand_never_plans_the_kept_product() {
    for numel in [0usize, 1, 4_096, 262_144, 4_194_304] {
        for op in [Op::Nn, Op::Nt, Op::Tn] {
            for rows in 0..=600 {
                assert_ne!(plan(op, rows, numel, numel), Path::Kept, "{op:?}, {rows} rows, {numel} dense");
            }
        }
    }
}
