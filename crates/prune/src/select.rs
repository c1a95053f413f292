//! The one top-k-by-magnitude selection of this crate.
//!
//! Every mask builder ranks positions by the same total order: larger
//! `|score|` first, a NaN below every magnitude, ties to the lower
//! index. [`key`] maps a score to a `u32` with that order, so choosing
//! the best `k` of a population is a radix select: one counting pass per
//! 16-bit digit of the key ([`Ranked`]: two for an `f32`, one for a half)
//! finds the lowest admitted key and how many of the positions tied at it
//! get in — a `Cut` — and one ascending pass over the positions emits the
//! kept indices already sorted. No index vector, comparator or sort: a
//! selection reads its scores once per digit and at most once to emit,
//! and allocates its output (the histogram is 256 KiB a thread, once).
//!
//! The emitting pass skips what its cut cannot admit when the cut is
//! sparse (a mask update regrows ≈ 1 % of the pruned positions): it tests
//! the candidates' scores a chunk of 16 at a time against the cut, without
//! a branch, reads only the chunks that may hold one, and reaches the
//! survivors of the skipped chunks through their sorted index list.

use crate::mask::Mask;
use std::num::Wrapping;
use tensor::F16;

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

/// What a selection ranks: a score whose `u32` key has [`key`]'s order
/// and `DIGITS` 16-bit digits, one counting pass each.
pub trait Ranked: Copy {
    const DIGITS: u32;
    fn key(self) -> u32;
    /// Whether `key() >= floor` may hold, for a `floor` of at least 1:
    /// `|x|`'s bits against `floor − 1` in one compare, so a NaN passes
    /// too. A filter, not a rank.
    fn may_reach(self, floor: u32) -> bool;
}

impl Ranked for f32 {
    const DIGITS: u32 = 2;
    fn key(self) -> u32 {
        key(self)
    }
    fn may_reach(self, floor: u32) -> bool {
        self.to_bits() & 0x7FFF_FFFF >= floor - 1
    }
}

/// A half ranks by its own magnitude bits. Widening to `f32` is exact and
/// strictly monotone in magnitude, sends `±0` to one key and every NaN to
/// 0, so this is `key(h.to_f32())`'s order, ties included — in one digit:
/// the key is at most `0x7C01`.
impl Ranked for F16 {
    const DIGITS: u32 = 1;
    fn key(self) -> u32 {
        let mag = u32::from(self.to_bits() & 0x7FFF);
        if mag > F16::INFINITY.to_bits().into() {
            0
        } else {
            mag + 1
        }
    }
    fn may_reach(self, floor: u32) -> bool {
        u32::from(self.to_bits() & 0x7FFF) >= floor - 1
    }
}

const DIGIT: u32 = 16;
const BINS: usize = 1 << DIGIT;
/// Counters per high-digit bin, side by side: gradients crowd into few
/// exponents, and back-to-back increments of one counter wait on each
/// other's store. A key's high digit (all of a half's key) is below 2¹⁵,
/// so it has `BINS / 2` values and every digit counts into `BINS` counters.
const LANES: usize = 2;
/// Positions one test covers.
const CHUNK: usize = 16;
/// `emit` tests chunks when it admits at most one candidate in `SPARSE`.
/// Measured on one selection of 1 M positions: skipping halves its time
/// at one admitted in 200, and breaks even near one in 33 with no
/// survivors (`f32`) and one in 8 with 10 % survivors (halves); denser,
/// the tests cost more than the chunks they skip.
const SPARSE: usize = 32;

thread_local! {
    /// The histogram's storage, kept per thread: 256 KiB a selection
    /// would otherwise map, fault in and unmap every time.
    static HIST: std::cell::RefCell<Vec<Wrapping<u32>>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether `chunk` may hold a key of at least `floor`: a fold without a
/// branch, which the compiler runs on the lanes of a register.
fn reaches<K: Ranked>(chunk: &[K], floor: u32) -> bool {
    floor == 0 || chunk.iter().fold(false, |any, x| any | x.may_reach(floor))
}

/// One digit's histogram of a population, filled by the closure handed
/// to [`Cut::best`].
struct Tally<'a> {
    hist: &'a mut [Wrapping<u32>],
    /// `None` while the high digits (a half's whole key) are counted,
    /// then the high digit under which the low ones are.
    high: Option<u32>,
}

impl Tally<'_> {
    /// Counts (`sign = 1`) or takes back out (`-1`) the scores of
    /// `items`. Few keys share the threshold's high digit, so the second
    /// pass is a compare per item and a rare increment.
    fn count<T, K: Ranked>(&mut self, items: &[T], score: impl Fn(&T) -> K, sign: i32) {
        let Some(high) = self.high else {
            let shift = DIGIT * (K::DIGITS - 1);
            for (i, item) in items.iter().enumerate() {
                self.hist[((score(item).key() >> shift) as usize * LANES + i % LANES) % BINS] += sign as u32;
            }
            return;
        };
        for item in items {
            let key = score(item).key();
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
struct Cut {
    key: u32,
    ties: usize,
}

impl Cut {
    const NONE: Cut = Cut { key: u32::MAX, ties: 0 };

    /// The cut that admits the best `k` of a population of `count`
    /// scores; `population` tallies all of them and runs once per digit.
    fn best<K: Ranked>(count: usize, k: usize, population: impl Fn(&mut Tally<'_>)) -> Cut {
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
            for pass in 0..K::DIGITS {
                hist.clear();
                hist.resize(BINS, Wrapping(0));
                population(&mut Tally { hist, high: (pass > 0).then_some(found) });
                let digit = crossing(hist, if pass == 0 { LANES } else { 1 }, &mut left);
                found = found << DIGIT | digit as u32;
            }
        });
        Cut { key: found, ties: left }
    }

    /// The lowest key the cut still admits: its own while ties are left.
    fn floor(&self) -> u32 {
        self.key + u32::from(self.ties == 0)
    }

    /// Writes `i` at `out[*n]` and steps `n` past it if `x` is admitted:
    /// a store and an add for every position, a branch only on a tie.
    fn admit(&mut self, x: impl Ranked, i: usize, out: &mut [u32], n: &mut usize) {
        let k = x.key();
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
/// by `candidates.0` under `candidates.1`. With `skip`, a chunk of
/// positions none of whose candidates reaches the cut is not read: its
/// survivors go out in one run with those of the chunks skipped beside
/// it. `out` needs one slot beyond the admitted count.
fn emit<K: Ranked>(
    prev: &[u32],
    survivors: (&[K], &mut Cut),
    candidates: (&[K], &mut Cut),
    skip: bool,
    out: &mut [u32],
) -> usize {
    let ((w, s), (score, c)) = (survivors, candidates);
    let (mut n, mut p) = (0, 0);
    // Admits the survivors below `end` not yet emitted.
    let mut survivors_below = |end: usize, p: &mut usize, out: &mut [u32], n: &mut usize| {
        while let Some(&i) = prev.get(*p).filter(|&&i| (i as usize) < end) {
            s.admit(w[i as usize], i as usize, out, n);
            *p += 1;
        }
    };
    // Unskipped, the whole tensor is one chunk.
    let width = if skip { CHUNK } else { score.len().max(1) };
    for (b, chunk) in score.chunks(width).enumerate() {
        if c.key == Cut::NONE.key || skip && !reaches(chunk, c.floor()) {
            continue;
        }
        let (mut start, end) = (b * width, b * width + chunk.len());
        survivors_below(start, &mut p, out, &mut n);
        // The gaps of `prev` in the chunk, each survivor after its gap.
        while start < end {
            let gap = prev.get(p).map_or(end, |&i| end.min(i as usize));
            for (i, &x) in (start..gap).zip(&score[start..gap]) {
                c.admit(x, i, out, &mut n);
            }
            if gap < end {
                survivors_below(gap + 1, &mut p, out, &mut n);
            }
            start = gap + 1;
        }
    }
    survivors_below(score.len(), &mut p, out, &mut n);
    n
}

/// The mask over `shape` keeping the `survivors.1` best entries of the
/// sorted index list `prev` by `|survivors.0|` and the `candidates.1`
/// best positions outside `prev` by `|candidates.0|` (both slices dense,
/// `numel` long; a count beyond its population keeps all of it).
pub(crate) fn reselect<K: Ranked>(
    shape: &[usize],
    prev: &[u32],
    survivors: (&[K], usize),
    candidates: (&[K], usize),
) -> Mask {
    let numel: usize = shape.iter().product();
    let ((w, keep_s), (score, keep_c)) = (survivors, candidates);
    assert!(w.len() == numel && score.len() == numel, "scores must cover the tensor");
    let (keep_s, keep_c) = (keep_s.min(prev.len()), keep_c.min(numel - prev.len()));
    let mut s = Cut::best::<K>(prev.len(), keep_s, |t| t.count(prev, |&i| w[i as usize], 1));
    // The pruned positions are everything but `prev`: two straight
    // walks instead of one over ~nnz short gaps.
    let mut c = Cut::best::<K>(numel - prev.len(), keep_c, |t| {
        t.count(score, |&x| x, 1);
        t.count(prev, |&i| score[i as usize], -1);
    });
    let mut kept = vec![0; keep_s + keep_c + 1];
    let skip = keep_c.saturating_mul(SPARSE) <= numel - prev.len();
    let n = emit(prev, (w, &mut s), (score, &mut c), skip, &mut kept);
    kept.truncate(n);
    Mask::new(shape, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{sort_oracle, MomentumPruneRegrow};
    use crate::{magnitude_prune, random_prune};
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

    /// Halves that stress the order: raw bit patterns, a pool of special
    /// values (NaN payloads of both signs, ±0, subnormals, ±∞), a few
    /// levels, or one value.
    fn draw16(kind: u32, n: usize, seed: u64) -> Vec<F16> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let special = [0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFFFF, 0x3C00, 0xBC00, 0x7BFF];
        (0..n)
            .map(|_| match kind {
                0 => F16::from_bits(rng.gen::<u32>() as u16),
                1 => F16::from_bits(special[rng.gen_range(0..special.len())]),
                2 => F16::from_f32((rng.gen_range(0..6) as f32 - 3.0) * 0.5),
                _ => F16::from_f32(-0.25),
            })
            .collect()
    }

    fn widen(h: &[F16]) -> Vec<f32> {
        h.iter().map(|x| x.to_f32()).collect()
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

        /// The policy built on the kernel against its full-sort
        /// formulation, the refill branch included (dense targets with a
        /// large swap).
        #[test]
        fn next_mask_matches_its_sort_oracle(
            numel in 2usize..200,
            prev_sparsity in 0.0f64..1.0,
            sparsity in 0.0f64..1.0,
            swap in 0.0f64..0.99,
            kinds in (0u32..4, 0u32..4),
            seed in any::<u64>(),
        ) {
            let (w, score) = (draw(kinds.0, numel, seed), draw(kinds.1, numel, seed ^ 1));
            let prev = random_prune(&[numel], prev_sparsity, seed ^ 2);
            let m = MomentumPruneRegrow::new(vec![(0, sparsity)], 1, swap);
            prop_assert_eq!(
                m.next_mask(0, &w, &score, &prev),
                sort_oracle::next_mask(&m, 0, &w, &score, &prev)
            );
        }

        /// Halves rank as their widened values: the kernel and the policy
        /// on `F16` keep what the sort oracle keeps on `f32` copies — the
        /// refill branch included (a dense `prev` leaves no candidates).
        #[test]
        fn halves_select_as_the_sort_oracle_on_their_widened_values(
            numel in 1usize..300,
            prev_sparsity in 0.0f64..1.0,
            prev_kind in 0u32..3,
            kinds in (0u32..4, 0u32..4),
            picks in (0u32..6, 0u32..6),
            fracs in (0.0f64..1.0, 0.0f64..1.0),
            schedule in (0.0f64..1.0, 0.0f64..0.99),
            seed in any::<u64>(),
        ) {
            let (w16, score16) = (draw16(kinds.0, numel, seed), draw16(kinds.1, numel, seed ^ 1));
            let (w, score) = (widen(&w16), widen(&score16));
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
            let got = reselect(&[numel], survivors, (&w16, keep_s), (&score16, keep_c));
            prop_assert_eq!(got.indices().as_slice(), &want[..]);

            let m = MomentumPruneRegrow::new(vec![(0, schedule.0)], 1, schedule.1);
            prop_assert_eq!(
                m.next_mask(0, &w16, &score16, &prev),
                sort_oracle::next_mask(&m, 0, &w, &score, &prev)
            );
        }
    }

    /// A survivor list of runs that start and end on chunk edges (or one
    /// position off them), or a random one.
    fn chunk_runs(numel: usize, layout: u32, run: usize, seed: u64) -> Mask {
        let run = run * CHUNK;
        let keep = |i: usize| match layout {
            0 => i % (2 * run) < run,
            1 => (i + 1) % (2 * run) < run,
            _ => (i % (2 * run)).wrapping_sub(1) < run - 1,
        };
        match layout {
            0..=2 => Mask::new(&[numel], (0..numel as u32).filter(|&i| keep(i as usize)).collect()),
            _ => random_prune(&[numel], (seed % 1000) as f64 / 1000.0, seed ^ 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked passes against the sort oracle over populations
        /// that span many chunks, of lengths off the chunk grid, with
        /// survivor runs on chunk edges, and tie quotas (a few levels, or
        /// one value) that run out inside a chunk or chunks later: every
        /// `draw16` kind, halves and their widened values, k = 0, 1, all,
        /// a sparse few (the emitting pass skips chunks) or any share.
        #[test]
        fn chunked_selection_matches_the_sort_oracle(
            chunks in 1usize..312,
            tail in 0usize..CHUNK,
            layout in 0u32..4,
            run in 1usize..4,
            kinds in (0u32..4, 0u32..4),
            picks in (0u32..6, 0u32..6),
            fracs in (0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
        ) {
            let numel = chunks * CHUNK + tail;
            let (w16, score16) = (draw16(kinds.0, numel, seed), draw16(kinds.1, numel, seed ^ 1));
            let (w, score) = (widen(&w16), widen(&score16));
            let prev = chunk_runs(numel, layout, run, seed);
            let (survivors, pruned) = (prev.indices().as_slice(), sort_oracle::pruned_indices(&prev));
            let pick = |pick: u32, len: usize, frac: f64| match pick {
                0 => 0,
                1 => 1.min(len),
                2 => len,
                3 => (len as f64 * frac / SPARSE as f64) as usize,
                _ => (len as f64 * frac) as usize,
            };
            let keep_s = pick(picks.0, survivors.len(), fracs.0);
            let keep_c = pick(picks.1, pruned.len(), fracs.1);
            let mut want = sort_oracle::top_k(survivors.to_vec(), keep_s, &w);
            want.extend(sort_oracle::top_k(pruned, keep_c, &score));
            want.sort_unstable();
            let got = reselect(&[numel], survivors, (&w16, keep_s), (&score16, keep_c));
            prop_assert_eq!(got.indices().as_slice(), &want[..]);
            let got = reselect(&[numel], survivors, (&w, keep_s), (&score, keep_c));
            prop_assert_eq!(got.indices().as_slice(), &want[..]);
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

    #[test]
    fn half_keys_order_as_their_widened_values() {
        let ascending = [F16::NAN, F16::ZERO, F16::from_bits(1), F16::MIN_POSITIVE, F16::ONE, F16::MAX, F16::INFINITY];
        for pair in ascending.windows(2) {
            assert!(pair[0].key() < pair[1].key(), "{pair:?}");
        }
        assert_eq!(F16::from_bits(0x8000).key(), F16::ZERO.key());
        assert_eq!(F16::from_f32(-2.5).key(), F16::from_f32(2.5).key());
        assert_eq!(F16::from_bits(0xFE01).key(), 0, "a negative NaN payload is still a NaN");
        // Every half, against the key of its widened value: the same
        // order, the same ties, and one digit.
        let mut all: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        all.sort_by_key(|h| key(h.to_f32()));
        for pair in all.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert_eq!(a.key().cmp(&b.key()), key(a.to_f32()).cmp(&key(b.to_f32())), "{a:?} {b:?}");
        }
        assert_eq!(all.last().unwrap().key(), 0x7C01);
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
            for sparsity in [0.5, 0.05] {
                let keep = ((1.0 - sparsity) * n as f64).round() as usize;
                check(&magnitude_prune(&w, &[n], sparsity), keep, &all, "magnitude_prune");

                // Regrow from the sparsest third of the positions.
                let prev = Mask::new(&[n], (0..n as u32).step_by(3).collect());
                let policy = MomentumPruneRegrow::new(vec![(0, sparsity)], 1, 0.1);
                let next = policy.next_mask(0, &w, &w, &prev);
                assert_eq!(next, sort_oracle::next_mask(&policy, 0, &w, &w, &prev), "next_mask at n = {n}");
                assert_eq!(next.nnz(), keep);
            }
        }
    }
}
