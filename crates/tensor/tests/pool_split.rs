//! The one way a mutable buffer is divided among kernel threads
//! (`tensor::pool::{par_parts_mut, par_rows_mut, par_chunks_mut}`):
//! whatever the cut — even rows with a ragged last one, or an uneven list
//! of parts — every element is handed out exactly once, with its offset,
//! and a task that panics takes its caller down, not the pool. The same
//! properties hold inline (`SAMO_THREADS=1`) and across workers; CI runs
//! both.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use tensor::pool::{par_chunks_mut, par_parts_mut, par_rows_mut};

proptest! {
    #[test]
    fn rows_are_handed_out_once_with_their_offset(
        rows in 0usize..300,
        cols in 1usize..40,
        short in 0usize..40,
        min_rows in 0usize..50,
    ) {
        // A strided matrix ends with its last element, not its last
        // stride: the last row may be short.
        let len = (rows * cols).saturating_sub(short % cols);
        let mut data = vec![0u32; len];
        let calls = AtomicUsize::new(0);
        par_rows_mut(&mut data[..], cols, min_rows, |offset, piece| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(!piece.is_empty(), "an empty piece is no task");
            assert_eq!(offset % cols, 0, "a piece starts on a row");
            let last = offset + piece.len() == len;
            assert!(last || piece.len() % cols == 0, "only the last row is short");
            assert!(last || piece.len() >= min_rows * cols, "only the last piece is small");
            for (i, v) in piece.iter_mut().enumerate() {
                *v += (offset + i) as u32 + 1;
            }
        });
        prop_assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        prop_assert_eq!(calls.into_inner() == 0, len == 0);
    }

    #[test]
    fn uneven_parts_are_handed_out_once_with_their_offset(
        lens in proptest::collection::vec(0usize..50, 0..12),
    ) {
        let ends: Vec<usize> = lens.iter().scan(0, |end, &l| { *end += l; Some(*end) }).collect();
        let mut data = vec![0u32; ends.last().copied().unwrap_or(0)];
        let calls = AtomicUsize::new(0);
        par_parts_mut(&mut data[..], ends.iter().copied(), |part, offset, piece| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(offset + piece.len(), ends[part]);
            assert_eq!(piece.len(), lens[part]);
            for v in piece {
                *v += part as u32 + 1;
            }
        });
        let owners = lens.iter().enumerate().flat_map(|(part, &l)| vec![part as u32 + 1; l]);
        prop_assert_eq!(data, owners.collect::<Vec<_>>());
        prop_assert_eq!(calls.into_inner(), lens.iter().filter(|&&l| l > 0).count());
    }

    #[test]
    fn a_pair_is_cut_at_the_same_positions(len in 0usize..5000, min_chunk in 0usize..600) {
        let (mut a, mut b) = (vec![0u32; len], vec![0u64; len]);
        par_chunks_mut((&mut a[..], Some(&mut b[..])), min_chunk, |offset, (pa, pb)| {
            let pb = pb.expect("a buffer that is there stays there");
            assert_eq!(pa.len(), pb.len());
            for (i, (x, y)) in pa.iter_mut().zip(pb).enumerate() {
                *x += (offset + i) as u32;
                *y += (offset + i) as u64;
            }
        });
        let both = a.iter().zip(&b).enumerate();
        prop_assert!(both.into_iter().all(|(i, (&x, &y))| x as usize == i && y as usize == i));
    }
}

#[test]
fn a_panicking_task_rethrows_on_the_caller_and_the_pool_lives_on() {
    let mut data = vec![0u8; 1 << 16];
    let hit = catch_unwind(AssertUnwindSafe(|| {
        par_chunks_mut(&mut data[..], 1, |offset, piece| {
            if offset == 0 {
                panic!("task exploded");
            }
            piece.fill(1);
        })
    }));
    let message = hit.expect_err("the task's panic must reach the caller");
    assert_eq!(message.downcast_ref::<&str>(), Some(&"task exploded"));
    par_chunks_mut(&mut data[..], 1, |_, piece| piece.fill(2));
    assert!(data.iter().all(|&v| v == 2));
}

#[test]
fn parts_that_do_not_tile_the_buffer_are_refused() {
    let mut data = [0u8; 100];
    for ends in [vec![60, 40, 100], vec![60], vec![60, 120]] {
        let hit = catch_unwind(AssertUnwindSafe(|| {
            par_parts_mut(&mut data[..], ends.iter().copied(), |_, _, piece| piece.fill(1))
        }));
        assert!(hit.is_err(), "{ends:?} accepted");
    }
}
