//! Proves the DESIGN.md "hot-path kernels" claim directly: once warmed
//! up, `SamoTrainer::step` and the GEMM kernels perform **zero heap
//! allocations** per invocation. A counting `#[global_allocator]` wraps
//! the system allocator; the assertion is an exact `== 0` on the number
//! of `alloc`/`alloc_zeroed`/`realloc` events inside the measured
//! window.
//!
//! Deliberately a single `#[test]` function: the default libtest harness
//! runs tests on multiple threads and any concurrent test's allocations
//! would bleed into the counter. One test, one thread, exact counts.
//! Counting is additionally scoped to the measuring thread (a
//! const-initialized thread-local flag, safe to read from the
//! allocator): background threads that happen to live in the process —
//! pool workers, the libtest main thread — cannot perturb the count
//! even when system load stretches the measured window.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::nm_linear::NmLinear;
use nn::optim::AdamConfig;
use nn::qlinear::QuantLinear;
use samo::SamoTrainer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tensor::gemm::{matmul, plan, sgemm_kept, Op, Path};
use tensor::Tensor;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Largest single request (bytes) seen while counting.
static LARGEST_ALLOC: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True only on the thread whose window is being measured. Const
    /// initialization means reading it never recurses into the
    /// allocator (no lazy TLS constructor, no drop).
    static COUNT_THIS_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_event(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) && COUNT_THIS_THREAD.with(|c| c.get()) {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        LARGEST_ALLOC.fetch_max(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Number of allocation events (alloc/alloc_zeroed/realloc) performed by
/// *this thread* during `f`. The kernels under test run inline on the
/// calling thread (the pool is pinned to one worker below), so
/// thread-scoped counting loses nothing and gains immunity to background
/// threads.
fn alloc_events_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|c| c.set(true));
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|c| c.set(false));
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_paths_allocate_nothing_in_steady_state() {
    // Pin the pool to one worker *before* anything touches it: with a
    // single worker `par_ranges`/`par_chunks_mut` run inline, so the
    // counter sees the kernels themselves rather than job hand-off.
    std::env::set_var("SAMO_THREADS", "1");

    // --- SamoTrainer::step --------------------------------------------
    let mut model = Linear::new(32, 32, false, 1);
    let mask = prune::random_prune(&[32, 32], 0.75, 2);
    let opt = Optimizer::Adam(AdamConfig::default());
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], opt);
    let x = Tensor::randn(&[8, 32], 1.0, 3);
    let target = Tensor::randn(&[8, 32], 1.0, 4);

    let run_fwd_bwd = |model: &mut Linear, scale: f32| {
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(scale, dy.as_mut_slice());
        model.backward(&dy);
    };

    // Warm-up: first steps populate the f16 conversion table, the global
    // thread pool, and the GEMM packing scratch inside forward/backward.
    for _ in 0..3 {
        run_fwd_bwd(&mut model, trainer.loss_scale());
        trainer.step(&mut model);
    }

    // Steady state: gradients produced outside the window, then the
    // fused step measured alone (both the compress and optimizer
    // kernels, the loss-scaler update, and zero_grad).
    for _ in 0..3 {
        run_fwd_bwd(&mut model, trainer.loss_scale());
        let events = alloc_events_during(|| {
            trainer.step(&mut model);
        });
        assert_eq!(events, 0, "SamoTrainer::step allocated {events} time(s)");
    }

    // --- remap_compressed_state (dynamic sparsity) --------------------
    // The mask-migration kernel stays off the heap with a warm
    // `RemapScratch`: scratch and live buffers both reserve dense
    // (numel) capacity up front, so densify *and* sparsify remaps fit
    // forever. Masks themselves allocate at construction, so they are
    // built (and cloned) outside the window — matching the trainer,
    // which computes the new mask before calling the kernel.
    let opt = Optimizer::Adam(AdamConfig::default());
    let values: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.37).sin()).collect();
    let mask_a = prune::random_prune(&[32, 32], 0.75, 12);
    let mask_dense = prune::random_prune(&[32, 32], 0.5, 13);
    let mask_sparse = prune::random_prune(&[32, 32], 0.9, 14);
    let mut layer = samo::SamoLayerState::from_params(&values, mask_a, &opt);
    let mut scratch = samo::state::RemapScratch::for_layer(&mut layer, &opt);
    // Warm both directions once (buffers were reserved by for_layer,
    // so even the first remap should already be silent — keep the
    // warm-up anyway so the assertion tests steady state, not setup).
    layer.remap_compressed_state(mask_dense.clone(), &mut scratch);
    layer.remap_compressed_state(mask_sparse.clone(), &mut scratch);
    let (to_dense, to_sparse) = (mask_dense.clone(), mask_sparse.clone());
    let events = alloc_events_during(|| {
        // Densify 0.9 → 0.5, then sparsify back — retired masks drop
        // inside the window (dealloc is free), survivors migrate, and
        // nothing touches the heap.
        layer.remap_compressed_state(to_dense, &mut scratch);
        layer.remap_compressed_state(to_sparse, &mut scratch);
    });
    assert_eq!(events, 0, "remap kernel allocated {events} time(s)");

    // --- SamoTrainer::step between remap events -----------------------
    // With a MaskSchedule installed, steps *between* schedule updates
    // (and after the schedule's window ends) must stay allocation-free:
    // the schedule check is a pure function of the step index, and the
    // per-layer scratch persists across remaps.
    let mut model2 = Linear::new(32, 32, false, 21);
    let mask2 = prune::magnitude_prune(
        model2.params()[0].value.as_slice(),
        &[32, 32],
        0.25,
    );
    let mut tr2 = SamoTrainer::new(&mut model2, vec![mask2], opt);
    tr2.set_mask_schedule(prune::MaskSchedule::MomentumPruneRegrow(
        prune::MomentumPruneRegrow::new(vec![(0, 0.25), (4, 0.75), (8, 0.4)], 2, 0.1),
    ));
    // t = 0..2 unmeasured: crosses the remap events at t = 0 and 2.
    for _ in 0..3 {
        run_fwd_bwd(&mut model2, tr2.loss_scale());
        tr2.step(&mut model2);
    }
    // t = 3 sits between the updates at 2 and 4: steady state.
    run_fwd_bwd(&mut model2, tr2.loss_scale());
    let events = alloc_events_during(|| {
        tr2.step(&mut model2);
    });
    assert_eq!(events, 0, "step between remap events allocated {events} time(s)");
    // Cross the remaining updates (sparsify at 4/6, densify at 8)...
    while tr2.step_index() <= 8 {
        run_fwd_bwd(&mut model2, tr2.loss_scale());
        tr2.step(&mut model2);
    }
    assert!(tr2.remap_events() >= 3, "schedule must have moved the masks");
    // ...then the post-schedule steady state is silent again.
    for _ in 0..3 {
        run_fwd_bwd(&mut model2, tr2.loss_scale());
        let events = alloc_events_during(|| {
            tr2.step(&mut model2);
        });
        assert_eq!(events, 0, "post-schedule step allocated {events} time(s)");
    }

    // --- SamoTrainer::step *on* a remap event --------------------------
    // An update step allocates, but nothing that scales with the layer
    // except the new mask's index vector: the grow score is canonicalised
    // in the engine's warm scratch, the selection reads scores in place
    // (its histogram is a fixed 256 KiB the thread keeps from t = 0), the
    // remap kernel swaps pre-sized buffers.
    let side = 512usize;
    let mut model3 = Linear::new(side, side, false, 41);
    let mask3 = prune::magnitude_prune(model3.params()[0].value.as_slice(), &[side, side], 0.9);
    let opt = Optimizer::Adam(AdamConfig::default());
    let mut tr3 = SamoTrainer::new(&mut model3, vec![mask3], opt);
    let policy = prune::MomentumPruneRegrow::new(vec![(0, 0.9), (8, 0.8)], 2, 0.1);
    tr3.set_mask_schedule(prune::MaskSchedule::MomentumPruneRegrow(policy.clone()));
    let (x3, target3) = (Tensor::randn(&[4, side], 1.0, 42), Tensor::randn(&[4, side], 1.0, 43));
    for t in 0..=4u64 {
        let y = model3.forward(&x3);
        let (_, mut dy) = mse(&y, &target3);
        tensor::ops::scale(tr3.loss_scale(), dy.as_mut_slice());
        model3.backward(&dy);
        let remaps = tr3.remap_events();
        LARGEST_ALLOC.store(0, Ordering::Relaxed);
        alloc_events_during(|| {
            tr3.step(&mut model3);
        });
        // t = 0 warmed the scratch; t = 2 and 4 are the measured updates.
        if t >= 2 && policy.is_update_step(t) {
            assert_eq!(tr3.remap_events(), remaps + 1, "the mask must move at t = {t}");
            let keep_target = ((1.0 - policy.sparsity_at(t)) * (side * side) as f64).round() as usize;
            let largest = LARGEST_ALLOC.load(Ordering::Relaxed) as usize;
            assert!(
                largest <= 4 * (keep_target + 1),
                "update step at t = {t} requested {largest} B at once; the new index is {} B",
                4 * keep_target
            );
        }
    }

    // --- GEMM (gemm_panel packing scratch is thread-local) ------------
    let dim = 64;
    let a = Tensor::randn(&[dim, dim], 1.0, 5);
    let b = Tensor::randn(&[dim, dim], 1.0, 6);
    let mut c = vec![0.0f32; dim * dim];
    matmul(dim, dim, dim, a.as_slice(), b.as_slice(), &mut c); // warm scratch
    let events = alloc_events_during(|| {
        for _ in 0..4 {
            matmul(dim, dim, dim, a.as_slice(), b.as_slice(), &mut c);
        }
    });
    assert_eq!(events, 0, "matmul allocated {events} time(s) after warm-up");

    // --- Linear forward + backward + zero_grad --------------------------
    // The training layer itself returns fresh activation tensors, so it
    // is not allocation-free — but once warm nothing it requests may
    // scale with in·out: dW streams into the gradient through the GEMM's
    // thread-local block, not through a dW-sized temporary.
    let (in_f, out_f, batch) = (96usize, 128, 4);
    let mut lin = Linear::new(in_f, out_f, true, 30);
    let lx = Tensor::randn(&[batch, in_f], 1.0, 31);
    let ldy = Tensor::randn(&[batch, out_f], 1.0, 32);
    let fwd_bwd_zero = |lin: &mut Linear| {
        lin.forward(&lx);
        lin.backward(&ldy);
        lin.zero_grad();
    };
    fwd_bwd_zero(&mut lin); // warm the packing and product-block scratch
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    alloc_events_during(|| fwd_bwd_zero(&mut lin));
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed) as usize;
    let activation = batch * in_f.max(out_f) * 4;
    assert!(
        largest <= activation,
        "Linear fwd+bwd+zero_grad requested {largest} B at once: more than an \
         activation ({activation} B), weights are {} B",
        in_f * out_f * 4
    );

    // --- Streamed weight gradient: backward + compress of one Linear ---
    // The data-parallel runtime takes the operands of dW = dyᵀ·x and
    // compresses the product into ∇θ16 without storing it. A thin batch
    // at a sparse mask computes the kept positions only: no scratch at
    // all, so the very first call allocates nothing — a rank that only
    // ever samples never grows the GEMM's product block. A dense mask
    // keeps the row blocks: warm, the block is the GEMM's thread-local
    // one, finding a block's kept positions is two binary searches, and
    // the sink is a stack value. First the kernels on their own — no
    // allocation at all — then the layer: a streamed `backward_into`
    // requests exactly what the plain backward does (the returned `dx`),
    // and nothing of the size of the weights.
    struct Compress(samo::SamoLayerState, bool);
    impl nn::layer::GradSink for Compress {
        fn ready(&mut self, _off: usize, _params: &[&nn::Parameter]) {}
        fn take_product(&mut self, index: usize, dy: Tensor, x: Tensor) -> Result<(), (Tensor, Tensor)> {
            if index != 0 {
                return Err((dy, x));
            }
            self.1 &= self.0.compress_grad_product(dy.rows(), dy.as_slice(), x.as_slice());
            Ok(())
        }
    }
    let sopt = Optimizer::Adam(AdamConfig::default());
    let compress = |mask: prune::Mask| {
        let weights = lin.params()[0].value.as_slice();
        Compress(samo::SamoLayerState::from_params(weights, mask, &sopt), true)
    };
    // The operands the sink takes are made outside the measured window.
    let stream_dw = |sink: &mut Compress| {
        use nn::layer::GradSink;
        let (dy, x) = (ldy.clone(), lx.clone());
        alloc_events_during(|| assert!(sink.take_product(0, dy, x).is_ok()))
    };
    let smask = prune::random_prune(&[out_f, in_f], 0.9, 33);
    assert_eq!(plan(Op::Tn, batch, smask.nnz(), smask.numel()), Path::Sampled);
    let mut sink = compress(smask);
    let events = stream_dw(&mut sink);
    assert_eq!(events, 0, "cold sampled dW + compress allocated {events} time(s)");
    let mut blocks = compress(prune::Mask::dense(&[out_f, in_f]));
    stream_dw(&mut blocks); // warm the product block
    let events = stream_dw(&mut blocks);
    assert_eq!(events, 0, "streamed dW + compress allocated {events} time(s)");
    assert!(blocks.1, "ordinary gradients are finite");

    lin.forward(&lx);
    let plain = alloc_events_during(|| {
        lin.backward(&ldy);
    });
    lin.forward(&lx);
    lin.backward_into(ldy.clone(), &mut sink); // warm
    lin.forward(&lx);
    let dy = ldy.clone();
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    let streamed = alloc_events_during(|| {
        lin.backward_into(dy, &mut sink);
    });
    assert_eq!(streamed, plain, "a streamed backward allocates what a plain one does: dx");
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed) as usize;
    assert!(largest <= activation, "streamed backward requested {largest} B at once");
    assert!(sink.1, "ordinary gradients are finite");

    // --- A block's streamed backward hands its operands on -------------
    // A pipeline stage's B gives every weight's `dy` and `x` to a sink
    // that keeps them for a later W. They move there: a warm
    // `[Linear, Relu, Linear]` block requests no more through a keeping
    // sink than its plain backward does (each child's `dx`, which the
    // plain one also clones `dy` for), and nothing larger than an
    // activation.
    struct Keep(Vec<(usize, Tensor, Tensor)>);
    impl nn::layer::GradSink for Keep {
        fn ready(&mut self, _off: usize, _params: &[&nn::Parameter]) {}
        fn take_product(&mut self, index: usize, dy: Tensor, x: Tensor) -> Result<(), (Tensor, Tensor)> {
            self.0.push((index, dy, x));
            Ok(())
        }
    }
    let mut block = Sequential::new()
        .push(Linear::new(in_f, out_f, true, 34))
        .push(nn::activations::Relu::new())
        .push(Linear::new(out_f, in_f, false, 35));
    let bdy = Tensor::randn(&[batch, in_f], 1.0, 36);
    block.forward(&lx);
    block.backward(&bdy); // warm
    block.forward(&lx);
    let plain = alloc_events_during(|| {
        block.backward(&bdy);
    });
    let mut keep = Keep(Vec::with_capacity(2));
    block.forward(&lx);
    block.backward_into(bdy.clone(), &mut keep); // warm
    keep.0.clear();
    block.forward(&lx);
    let dy = bdy.clone();
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    let streamed = alloc_events_during(|| {
        block.backward_into(dy, &mut keep);
    });
    assert!(streamed <= plain, "a keeping sink's backward made {streamed} requests, the plain one {plain}");
    assert_eq!(keep.0.len(), 2, "both weights' operands kept");
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed) as usize;
    assert!(largest <= activation, "a keeping sink's backward requested {largest} B at once");

    // --- Linear from a lent θ16: forward + dx -------------------------
    // A weight a SAMO runtime manages computes from the dense θ16 the
    // runtime lends it — unpruned here, so its index names every position
    // and the products run whole. The GEMM's pack step widens the halves
    // into the thread-local panel it would copy f32 into, so warm forward
    // + dx request what the f32 layer requests — the activations — and
    // nothing of the size of the weights.
    let fwd_bwd = |lin: &mut Linear| {
        lin.forward(&lx);
        lin.backward(&ldy);
    };
    fwd_bwd(&mut lin);
    let from_f32 = alloc_events_during(|| fwd_bwd(&mut lin));
    let weight = lin.weight_mut();
    let mut theta16 = tensor::f16::f32_slice_to_f16(weight.value.as_slice());
    let whole = std::sync::Arc::new((0..weight.numel() as u32).collect::<Vec<_>>());
    weight.release_value();
    weight.lend_theta16(&mut theta16, whole, true);
    assert!(theta16.is_empty() && !weight.holds_value(), "θ16 is the only weight left");
    fwd_bwd(&mut lin); // warm: same scratch, first use of the f16 table
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    let from_f16 = alloc_events_during(|| fwd_bwd(&mut lin));
    assert_eq!(from_f16, from_f32, "a lent θ16 adds no allocation to forward + backward");
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed) as usize;
    assert!(largest <= activation, "forward + dx from θ16 requested {largest} B at once");

    // --- The kept products of a lent index: forward + dx ---------------
    // With its mask's index lent beside θ16, a layer's two products run
    // over the kept weights: A is transposed into thread-local scratch
    // sized for both products of the layer at once, so the first forward
    // grows it, the first dx (k and n swapped) finds it grown, and warm
    // calls allocate nothing. A whole 64-row block: deeper than the kept
    // forwards the trainers above ran between their steps, whose scratch
    // this thread keeps.
    let rows = 64;
    let kmask = prune::random_prune(&[out_f, in_f], 0.9, 34);
    let mut kw = Tensor::randn(&[out_f, in_f], 1.0, 35);
    kmask.apply(kw.as_mut_slice());
    let kw16 = tensor::f16::f32_slice_to_f16(kw.as_slice());
    let (kx, kdy) = (Tensor::randn(&[rows, in_f], 1.0, 36), Tensor::randn(&[rows, out_f], 1.0, 37));
    let (mut ky, mut kdx) = (vec![0.0f32; rows * out_f], vec![0.0f32; rows * in_f]);
    let (nnz, numel) = (kmask.nnz(), kmask.numel());
    assert!(plan(Op::Nt, rows, nnz, numel) == Path::Kept && plan(Op::Nn, rows, nnz, numel) == Path::Kept);
    let idx = kmask.indices();
    let grown = alloc_events_during(|| sgemm_kept(true, rows, out_f, in_f, kx.as_slice(), &kw16, idx, &mut ky));
    assert_eq!(grown, 1, "the first kept forward grows the scratch once");
    let events = alloc_events_during(|| sgemm_kept(false, rows, in_f, out_f, kdy.as_slice(), &kw16, idx, &mut kdx));
    assert_eq!(events, 0, "the first kept dx finds the scratch grown");
    let events = alloc_events_during(|| {
        for _ in 0..4 {
            sgemm_kept(true, rows, out_f, in_f, kx.as_slice(), &kw16, idx, &mut ky);
            sgemm_kept(false, rows, in_f, out_f, kdy.as_slice(), &kw16, idx, &mut kdx);
        }
    });
    assert_eq!(events, 0, "warm kept forward + dx allocated {events} time(s)");

    // --- Steady-state serving loop (`Layer::infer_batch`) -------------
    // The serving runtime's replica loop is exactly this: one warm
    // model, one warm output buffer, `infer_batch` per batch. Every
    // backend the replica pool can run — dense θ16-derived f32, 2:4
    // structured, int8 — must be allocation-free once warm (the nm/int8
    // kernels keep their packing scratch thread-local for this).
    let (in_f, hidden, out_f, batch) = (32usize, 64, 16, 8);
    let wx = Tensor::randn(&[in_f * batch], 1.0, 7);
    let mut out = Vec::new();

    let mut dense = Sequential::new()
        .push(Linear::new(in_f, hidden, true, 8))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(hidden, out_f, true, 9));
    let w1 = Tensor::randn(&[hidden, in_f], 1.0, 10);
    let w2 = Tensor::randn(&[out_f, hidden], 1.0, 11);
    let mut nm = Sequential::new()
        .push(NmLinear::from_dense(&w1, None))
        .push(nn::activations::Gelu::new())
        .push(NmLinear::from_dense(&w2, None));
    let mut int8 = Sequential::new()
        .push(QuantLinear::from_weights(&w1, None))
        .push(nn::activations::Gelu::new())
        .push(QuantLinear::from_weights(&w2, None));

    for (name, model) in [
        ("dense", &mut dense as &mut Sequential),
        ("nm24", &mut nm),
        ("int8", &mut int8),
    ] {
        for _ in 0..2 {
            model.infer_batch(wx.as_slice(), batch, in_f, &mut out); // warm scratch
        }
        let events = alloc_events_during(|| {
            for _ in 0..4 {
                model.infer_batch(wx.as_slice(), batch, in_f, &mut out);
            }
        });
        assert_eq!(
            events, 0,
            "{name} serving loop allocated {events} time(s) after warm-up"
        );
    }
}
