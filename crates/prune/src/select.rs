//! The one top-k-by-magnitude selection of this crate.
//!
//! Every mask builder ranks positions by the same total order: larger
//! `|score|` first, a NaN below every magnitude, ties to the lower
//! index. [`key`] maps a score to a `u32` with that order, so choosing
//! the best `k` of a population is a radix select: one counting pass per
//! 16-bit digit of the key finds the lowest admitted key and how many of
//! the positions tied at it get in — a `Cut` — and one ascending pass
//! over the positions emits the kept indices already sorted. No index
//! vector, comparator or sort: a selection reads its scores three times
//! and allocates its output (the histogram is 256 KiB a thread, once).

use crate::mask::Mask;
use std::num::Wrapping;

/// Rank of a score, larger is better: the bit pattern of `|x|` (ordered
/// as the magnitudes are; `±0` equal) plus one, and 0 for a NaN of
/// either sign — so a NaN is admitted only when nothing else is left.
pub fn key(x: f32) -> u32 {
    let mag = x.to_bits() & 0x7FFF_FFFF;
    if mag > f32::INFINITY.to_bits() {
        0
    } else {
        mag + 1
    }
}

const DIGIT: u32 = 16;
const BINS: usize = 1 << DIGIT;
/// Counters per high-digit bin, side by side: gradients crowd into few
/// exponents, and back-to-back increments of one counter wait on each
/// other's store. A key is below 2³¹, so its high digit has `BINS / 2`
/// values and both digits count into `BINS` counters.
const LANES: usize = 2;

thread_local! {
    /// The histogram's storage, kept per thread: 256 KiB a selection
    /// would otherwise map, fault in and unmap every time.
    static HIST: std::cell::RefCell<Vec<Wrapping<u32>>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One digit's histogram of a population, filled by the closure handed
/// to [`Cut::best`].
pub(crate) struct Tally<'a> {
    hist: &'a mut [Wrapping<u32>],
    /// `None` while the high digits are counted, then the high digit
    /// under which the low ones are.
    high: Option<u32>,
}

impl Tally<'_> {
    /// Counts (`sign = 1`) or takes back out (`-1`) the scores of
    /// `items`. Few keys share the threshold's high digit, so the second
    /// pass is a compare per item and a rare increment.
    pub(crate) fn count<T>(&mut self, items: &[T], score: impl Fn(&T) -> f32, sign: i32) {
        let Some(high) = self.high else {
            for (i, item) in items.iter().enumerate() {
                self.hist[((key(score(item)) >> DIGIT) as usize * LANES + i % LANES) % BINS] += sign as u32;
            }
            return;
        };
        for item in items {
            let key = key(score(item));
            if key >> DIGIT == high {
                std::hint::cold_path();
                self.hist[key as usize % BINS] += sign as u32;
            }
        }
    }
}

/// Walks the bins of `hist` (`lanes` counters each) from the best down,
/// taking every bin it passes off `left`, and returns the bin that holds
/// the `left`-th key. A lane may have wrapped below zero where scores
/// were taken back out; a bin's — and so a block's — wrapping total is
/// exact, the population being at most `u32::MAX`.
fn crossing(hist: &[Wrapping<u32>], lanes: usize, left: &mut usize) -> usize {
    let total = |counters: &[Wrapping<u32>]| counters.iter().sum::<Wrapping<u32>>().0 as usize;
    // Most bins are empty: step over them a block at a time.
    const BLOCK: usize = 256;
    for (b, block) in hist.chunks(BLOCK).enumerate().rev() {
        if total(block) < *left {
            *left -= total(block);
            continue;
        }
        for (i, bin) in block.chunks(lanes).enumerate().rev() {
            if total(bin) >= *left {
                return b * BLOCK / lanes + i;
            }
            *left -= total(bin);
        }
    }
    unreachable!("the population holds more than `left` keys")
}

/// What a selection admits: every key above `key`, and the first `ties`
/// positions (in ascending order) whose key equals it.
pub(crate) struct Cut {
    key: u32,
    ties: usize,
}

impl Cut {
    pub(crate) const NONE: Cut = Cut { key: u32::MAX, ties: 0 };

    /// The cut that admits the best `k` of a population of `count`
    /// scores; `population` tallies all of them and runs once per digit.
    pub(crate) fn best(count: usize, k: usize, population: impl Fn(&mut Tally<'_>)) -> Cut {
        if k == 0 {
            return Cut::NONE;
        } else if k >= count {
            // Everything: every number is above key 0, every NaN ties at it.
            return Cut { key: 0, ties: usize::MAX };
        }
        assert!(count <= u32::MAX as usize, "population too large for the bin counters");
        // `left` of the keys under the digits found so far are still to
        // admit: walk the bins from the best until one crosses it.
        let (mut found, mut left) = (0u32, k);
        HIST.with_borrow_mut(|hist| {
            for lanes in [LANES, 1] {
                hist.clear();
                hist.resize(BINS, Wrapping(0));
                population(&mut Tally { hist, high: (lanes == 1).then_some(found) });
                let digit = crossing(hist, lanes, &mut left);
                found = found << DIGIT | digit as u32;
            }
        });
        Cut { key: found, ties: left }
    }

    /// Writes `i` at `out[*n]` and steps `n` past it if `x` is admitted:
    /// a store and an add for every position, a branch only on a tie.
    fn admit(&mut self, x: f32, i: usize, out: &mut [u32], n: &mut usize) {
        let k = key(x);
        out[*n] = i as u32;
        *n += usize::from(k > self.key);
        if k == self.key {
            std::hint::cold_path();
            if self.ties > 0 {
                self.ties -= 1;
                *n += 1;
            }
        }
    }
}

/// Writes to `out`, ascending, every position of `0..numel` its cut
/// admits, and returns how many: an entry of the sorted `prev` is ranked
/// by `survivors.0` under `survivors.1`, a position in a gap of `prev`
/// by `candidates.0` under `candidates.1`. `out` needs one slot beyond
/// the admitted count.
pub(crate) fn emit(
    numel: usize,
    prev: &[u32],
    survivors: (&[f32], &mut Cut),
    candidates: (&[f32], &mut Cut),
    out: &mut [u32],
) -> usize {
    let ((w, s), (score, c)) = (survivors, candidates);
    let scan_gaps = c.key != Cut::NONE.key;
    let (mut n, mut start) = (0, 0);
    for end in prev.iter().map(|&i| i as usize).chain([numel]) {
        if scan_gaps {
            for (j, &x) in score[start..end].iter().enumerate() {
                c.admit(x, start + j, out, &mut n);
            }
        }
        if end < numel {
            s.admit(w[end], end, out, &mut n);
        }
        start = end + 1;
    }
    n
}

/// The mask over `shape` keeping the `survivors.1` best entries of the
/// sorted index list `prev` by `|survivors.0|` and the `candidates.1`
/// best positions outside `prev` by `|candidates.0|` (both slices dense,
/// `numel` long; a count beyond its population keeps all of it).
pub(crate) fn reselect(
    shape: &[usize],
    prev: &[u32],
    survivors: (&[f32], usize),
    candidates: (&[f32], usize),
) -> Mask {
    let numel: usize = shape.iter().product();
    let ((w, keep_s), (score, keep_c)) = (survivors, candidates);
    assert!(w.len() == numel && score.len() == numel, "scores must cover the tensor");
    let (keep_s, keep_c) = (keep_s.min(prev.len()), keep_c.min(numel - prev.len()));
    let mut s = Cut::best(prev.len(), keep_s, |t| t.count(prev, |&i| w[i as usize], 1));
    // The pruned positions are everything but `prev`: two straight
    // walks instead of one over ~nnz short gaps.
    let mut c = Cut::best(numel - prev.len(), keep_c, |t| {
        t.count(score, |&x| x, 1);
        t.count(prev, |&i| score[i as usize], -1);
    });
    let mut kept = vec![0; keep_s + keep_c + 1];
    let n = emit(numel, prev, (w, &mut s), (score, &mut c), &mut kept);
    kept.truncate(n);
    Mask::new(shape, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{grow_to, sort_oracle, MomentumPruneRegrow};
    use crate::{global_magnitude_prune, magnitude_prune, random_prune, GradualSchedule};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Scores that stress the order: raw bit patterns (NaN payloads of
    /// both signs, subnormals, ±∞), a pool of special values, a few
    /// levels (ties everywhere), or one value (only the tie quota decides).
    fn draw(kind: u32, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let special = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC1_2345),
            f32::from_bits(0xFF80_0001),
            1.0,
            -1.0,
            f32::MAX,
        ];
        (0..n)
            .map(|_| match kind {
                0 => f32::from_bits(rng.gen::<u32>()),
                1 => special[rng.gen_range(0..special.len())],
                2 => (rng.gen_range(0..6) as f32 - 3.0) * 0.5,
                _ => -0.25,
            })
            .collect()
    }

    /// The indices two per-layer masks keep, in the concatenated tensor.
    fn joined(masks: &[Mask], second_starts_at: usize) -> Vec<u32> {
        let second = masks[1].indices().iter().map(|&i| i + second_starts_at as u32);
        masks[0].indices().iter().copied().chain(second).collect()
    }

    /// `k` from the edges of `0..=len`, or anywhere inside.
    fn pick_k(pick: u32, len: usize, frac: f64) -> usize {
        match pick {
            0 => 0,
            1 => 1.min(len),
            2 => len.saturating_sub(1),
            3 => len,
            _ => (len as f64 * frac) as usize,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The kernel keeps exactly what sorting each population by
        /// `by_score_desc` keeps — for empty, dense and random `prev`.
        #[test]
        fn reselect_matches_the_sort_oracle(
            numel in 1usize..300,
            prev_sparsity in 0.0f64..1.0,
            prev_kind in 0u32..4,
            kinds in (0u32..4, 0u32..4),
            picks in (0u32..6, 0u32..6),
            fracs in (0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
        ) {
            let (w, score) = (draw(kinds.0, numel, seed), draw(kinds.1, numel, seed ^ 1));
            let prev = match prev_kind {
                0 => Mask::new(&[numel], vec![]),
                1 => Mask::dense(&[numel]),
                _ => random_prune(&[numel], prev_sparsity, seed ^ 2),
            };
            let (survivors, pruned) = (prev.indices().as_slice(), sort_oracle::pruned_indices(&prev));
            let keep_s = pick_k(picks.0, survivors.len(), fracs.0);
            let keep_c = pick_k(picks.1, pruned.len(), fracs.1);
            let mut want = sort_oracle::top_k(survivors.to_vec(), keep_s, &w);
            want.extend(sort_oracle::top_k(pruned, keep_c, &score));
            want.sort_unstable();
            let got = reselect(&[numel], survivors, (&w, keep_s), (&score, keep_c));
            prop_assert_eq!(got.indices().as_slice(), &want[..]);
        }

        /// The policies built on the kernel against their full-sort
        /// formulations, the refill branch included (dense targets with
        /// a large swap), and one global cut across layer boundaries.
        #[test]
        fn policies_match_their_sort_oracles(
            numel in 2usize..200,
            prev_sparsity in 0.0f64..1.0,
            sparsity in 0.0f64..1.0,
            swap in 0.0f64..0.99,
            kinds in (0u32..4, 0u32..4),
            split in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let (w, score) = (draw(kinds.0, numel, seed), draw(kinds.1, numel, seed ^ 1));
            let prev = random_prune(&[numel], prev_sparsity, seed ^ 2);
            let m = MomentumPruneRegrow::new(vec![(0, sparsity)], 1, swap);
            prop_assert_eq!(
                m.next_mask(0, &w, &score, &prev),
                sort_oracle::next_mask(&m, 0, &w, &score, &prev)
            );
            let target = prev.nnz() + ((numel - prev.nnz()) as f64 * sparsity) as usize;
            prop_assert_eq!(grow_to(&prev, target, &score), sort_oracle::grow_to(&prev, target, &score));

            let cut = 1 + (split * (numel - 1) as f64) as usize;
            let (a, b) = w.split_at(cut.min(numel - 1));
            let masks = global_magnitude_prune(&[(a, &[a.len()]), (b, &[b.len()])], sparsity);
            let keep = ((1.0 - sparsity) * numel as f64).round() as usize;
            let want = sort_oracle::top_k((0..numel as u32).collect(), keep, &w);
            prop_assert_eq!(joined(&masks, a.len()), want);
        }
    }

    #[test]
    fn key_orders_magnitudes_and_ranks_nan_last() {
        let ascending = [f32::NAN, 0.0, f32::MIN_POSITIVE / 2.0, f32::MIN_POSITIVE, 1.0, f32::MAX, f32::INFINITY];
        for pair in ascending.windows(2) {
            assert!(key(pair[0]) < key(pair[1]), "{pair:?}");
        }
        assert_eq!(key(-0.0), key(0.0));
        assert_eq!(key(-2.5), key(2.5));
        assert_eq!(key(f32::from_bits(0xFFC0_0001)), 0, "a negative NaN payload is still a NaN");
    }

    /// Regression: one NaN weight in seven made the comparator sorts
    /// panic ("does not correctly implement a total order") and left
    /// `select_nth` unspecified. Every entry point now returns exactly
    /// `keep` strictly increasing indices (`Mask::new` asserts the order)
    /// and admits a NaN only once every number is in.
    #[test]
    fn nan_weights_give_exact_masks_on_every_entry_point() {
        for n in [64usize, 1_000, 100_000] {
            let w: Vec<f32> = (0..n)
                .map(|i| if i % 7 == 3 { f32::NAN } else { ((i * 37) % 101) as f32 - 50.0 })
                .collect();
            let numbers = |idx: &[u32]| idx.iter().filter(|&&i| !w[i as usize].is_nan()).count();
            let check = |mask: &Mask, keep: usize, population: &[u32], what: &str| {
                assert_eq!(mask.nnz(), keep, "{what} at n = {n}");
                let got = numbers(mask.indices());
                assert_eq!(got, keep.min(numbers(population)), "{what} at n = {n} kept a NaN early");
            };
            let all: Vec<u32> = (0..n as u32).collect();
            let dense = Mask::dense(&[n]);
            for sparsity in [0.5, 0.05] {
                let keep = ((1.0 - sparsity) * n as f64).round() as usize;
                check(&magnitude_prune(&w, &[n], sparsity), keep, &all, "magnitude_prune");
                let (a, b) = w.split_at(n / 3);
                let masks = global_magnitude_prune(&[(a, &[a.len()]), (b, &[b.len()])], sparsity);
                check(&Mask::new(&[n], joined(&masks, a.len())), keep, &all, "global_magnitude_prune");

                let ramp = GradualSchedule { initial: sparsity, final_sparsity: sparsity, begin: 0, end: 1, frequency: 1 };
                check(&ramp.mask_at(0, &w, &[n], Some(&dense)), keep, &all, "mask_at");
                let mut imp = crate::IterativePruner::with_rate(&[n], sparsity, 1.0);
                check(&imp.prune_round(&w), keep, &all, "prune_round");

                // Grow and regrow from the sparsest third of the positions.
                let prev = Mask::new(&[n], (0..n as u32).step_by(3).collect());
                let pruned: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 0).collect();
                let grown = grow_to(&prev, keep.max(prev.nnz()), &w);
                let admitted: Vec<u32> = grown.indices().iter().copied().filter(|i| i % 3 != 0).collect();
                check(&Mask::new(&[n], admitted), keep.max(prev.nnz()) - prev.nnz(), &pruned, "grow_to");
                let policy = MomentumPruneRegrow::new(vec![(0, sparsity)], 1, 0.1);
                let next = policy.next_mask(0, &w, &w, &prev);
                assert_eq!(next, sort_oracle::next_mask(&policy, 0, &w, &w, &prev), "next_mask at n = {n}");
                assert_eq!(next.nnz(), keep);
            }
        }
    }
}
