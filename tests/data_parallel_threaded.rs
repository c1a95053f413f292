//! Integration: the thread-per-rank data-parallel runtime over the
//! `comms` ring all-reduce is **bitwise interchangeable** with the
//! in-process `DataParallelSamo`, and injected rank failures surface as
//! timeouts (never hangs) with checkpoint-restore resynchronizing the
//! group exactly.

use nn::layer::{GradSink, Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::AdamConfig;
use nn::param::Parameter;
use prune::Mask;
use samo::reference::DataParallelSamo;
use samo::threaded::ThreadedDataParallelSamo;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tensor::Tensor;

const IN: usize = 6;
const HID: usize = 10;
const OUT: usize = 4;
const BATCH: usize = 5;

fn model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, HID, true, seed))
        .push(nn::activations::Relu::new())
        .push(Linear::new(HID, OUT, false, seed + 1))
}

/// `(dense position, ±∞)` to overflow a streamed weight gradient at.
type Plant = Arc<Mutex<Vec<(usize, f32)>>>;

/// The bias-free second `Linear` with a tap on its streamed gradient: the
/// threaded runtime takes the operands of `dW = dyᵀ·x` and keeps no dense
/// `grad` to plant a value in, so a planted infinity goes in through the
/// operands on their way to the runtime's sink: one more batch row whose
/// only product is `±1e9` at the planted position — past half precision,
/// so `∇θ16` reads `±∞` there as `inf + finite` does in the oracle's
/// accumulated gradient — and `0` everywhere else.
struct Tapped {
    inner: Linear,
    plant: Plant,
}

struct Tap<'a> {
    sink: &'a mut dyn GradSink,
    plant: &'a Mutex<Vec<(usize, f32)>>,
}

impl GradSink for Tap<'_> {
    fn ready(&mut self, off: usize, params: &[&Parameter]) {
        self.sink.ready(off, params);
    }
    fn take_product(&mut self, index: usize, dy: Tensor, x: Tensor) -> Result<(), (Tensor, Tensor)> {
        let (out, inp, mut rows) = (dy.cols(), x.cols(), dy.rows());
        let (mut dy, mut x) = (dy.into_vec(), x.into_vec());
        for (at, v) in self.plant.lock().unwrap().drain(..) {
            dy.extend((0..out).map(|i| if i == at / inp { 1e9f32.copysign(v) } else { 0.0 }));
            x.extend((0..inp).map(|j| if j == at % inp { 1.0 } else { 0.0 }));
            rows += 1;
        }
        let (dy, x) = (Tensor::from_vec(&[rows, out], dy), Tensor::from_vec(&[rows, inp], x));
        let took = self.sink.take_product(index, dy, x);
        assert!(took.is_ok(), "the threaded runtime streams a Linear's weight gradient");
        took
    }
}

impl Layer for Tapped {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(x)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(dy)
    }
    fn params(&self) -> Vec<&Parameter> {
        self.inner.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.params_mut()
    }
    fn backward_into(&mut self, dy: Tensor, sink: &mut dyn GradSink) -> Tensor {
        let mut tap = Tap { sink, plant: &self.plant };
        self.inner.backward_into(dy, &mut tap)
    }
}

/// [`model`] with the second `Linear` tapped.
fn tapped_model(seed: u64, plant: &Plant) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, HID, true, seed))
        .push(nn::activations::Relu::new())
        .push(Tapped { inner: Linear::new(HID, OUT, false, seed + 1), plant: Arc::clone(plant) })
}

fn masks() -> Vec<Mask> {
    let m = model(1);
    let ps = m.params();
    vec![
        prune::magnitude_prune(ps[0].value.as_slice(), ps[0].value.shape(), 0.6),
        Mask::dense(ps[1].value.shape()), // bias dense
        prune::magnitude_prune(ps[2].value.as_slice(), ps[2].value.shape(), 0.5),
    ]
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig { lr: 0.02, ..Default::default() })
}

fn batch(step: u64, rank: usize) -> (Tensor, Tensor) {
    let x = Tensor::randn(&[BATCH, IN], 1.0, 10_000 + step * 16 + rank as u64);
    let t = Tensor::randn(&[BATCH, OUT], 1.0, 20_000 + step * 16 + rank as u64);
    (x, t)
}

/// Drives one in-process step with the same math the threaded closure
/// runs: forward, MSE, scale, backward.
fn drive_inproc(dp: &mut DataParallelSamo<Sequential>, step: u64) {
    for r in 0..dp.world_size() {
        let scale = dp.loss_scale();
        let (x, t) = batch(step, r);
        let m = dp.replica_mut(r);
        let y = m.forward(&x);
        let (_, mut dy) = mse(&y, &t);
        tensor::ops::scale(scale, dy.as_mut_slice());
        m.backward(&dy);
    }
    dp.step();
}

fn threaded_step(th: &mut ThreadedDataParallelSamo<Sequential>, step: u64) -> Result<bool, String> {
    th.step(move |rank, m, scale| {
        let (x, t) = batch(step, rank);
        let y = m.forward(&x);
        let (_, mut dy) = mse(&y, &t);
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    })
}

/// Satellite #6: same seeds, same loss-scale schedule → the threaded
/// runtime's full training state matches the in-process one bit for
/// bit, step after step (checkpoint bytes are a complete, canonical
/// encoding of θ16/∇θ16/θ32-shards/optimizer state + scaler + counters,
/// so byte equality is state equality).
#[test]
fn threaded_matches_inproc_bitwise() {
    // An odd world under a modest scale, and an even one under the
    // default scaler (65536, where the first verdicts matter most).
    for (world, scaler) in [(3usize, Some(1024.0)), (2, None)] {
        let mut dp =
            DataParallelSamo::new((0..world).map(|_| model(7)).collect(), masks(), adam());
        let mut th =
            ThreadedDataParallelSamo::new((0..world).map(|_| model(7)).collect(), masks(), adam());
        if let Some(scale) = scaler {
            dp.set_scaler(LossScaler::new(scale));
            th.set_scaler(LossScaler::new(scale));
        }

        for step in 0..10u64 {
            let skipped = dp.steps_skipped();
            drive_inproc(&mut dp, step);
            let applied = threaded_step(&mut th, step).expect("healthy mesh");
            // Overflow verdicts agree: both groups see the same reduced
            // gradient bits, so they skip the same steps.
            assert_eq!(applied, dp.steps_skipped() == skipped, "verdict at step {step}");
            assert_eq!(dp.loss_scale(), th.loss_scale(), "scale diverged at step {step}");
            assert_eq!(
                dp.save().as_ref(),
                th.save().as_ref(),
                "training state diverged at world {world} step {step}"
            );
        }
        assert_eq!(dp.steps_taken(), th.steps_taken());
        assert_eq!(dp.steps_skipped(), th.steps_skipped());
        // Both account collective volume with the same ring formula.
        assert_eq!(dp.allreduce_bytes(), th.allreduce_bytes());

        // And the replicas themselves hold identical dense parameters.
        for r in 0..world {
            let want: Vec<Vec<f32>> =
                dp.replica_mut(r).params().iter().map(|p| p.value.as_slice().to_vec()).collect();
            let got = th.with_rank(r, |m, _| {
                m.params().iter().map(|p| p.value.as_slice().to_vec()).collect::<Vec<_>>()
            });
            assert_eq!(got, want, "rank {r} replica diverged");
        }
    }
}

/// At p = 0.9 a rank's products run over the kept weights of the lent
/// index — `x·Wᵀ` from four rows a rank as `dp2_tcp_wide` does, `dy·W`
/// too from sixteen — and the checkpoints are still the in-process
/// oracle's, which computes on its f32 values.
#[test]
fn kept_products_from_the_lent_index_match_inproc_bitwise() {
    let sparse = |seed| {
        Sequential::new()
            .push(Linear::new(48, 64, true, seed))
            .push(nn::activations::Relu::new())
            .push(Linear::new(64, 24, false, seed + 1))
    };
    let mask = |p: &&Parameter| match p.value.shape() {
        shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.9),
        shape => Mask::dense(shape),
    };
    let masks: Vec<Mask> = sparse(3).params().iter().map(mask).collect();
    for rows in [4usize, 16] {
        let batch = move |step: u64, rank: usize| {
            let seed = 60_000 + step * 16 + rank as u64;
            (Tensor::randn(&[rows, 48], 1.0, seed), Tensor::randn(&[rows, 24], 1.0, seed + 1_000))
        };
        let mut dp = DataParallelSamo::new(vec![sparse(3), sparse(3)], masks.clone(), adam());
        let mut th = ThreadedDataParallelSamo::new(vec![sparse(3), sparse(3)], masks.clone(), adam());
        for step in 0..4u64 {
            for r in 0..2 {
                let (scale, (x, t)) = (dp.loss_scale(), batch(step, r));
                let m = dp.replica_mut(r);
                let (_, mut dy) = mse(&m.forward(&x), &t);
                tensor::ops::scale(scale, dy.as_mut_slice());
                m.backward(&dy);
            }
            dp.step();
            th.step(move |rank, m, scale| {
                let (x, t) = batch(step, rank);
                let (_, mut dy) = mse(&m.forward(&x), &t);
                tensor::ops::scale(scale, dy.as_mut_slice());
                dy
            })
            .expect("healthy mesh");
            assert_eq!(dp.save().as_ref(), th.save().as_ref(), "{rows} rows a rank, step {step}");
        }
    }
}

/// Satellite #3: killing a rank's links makes the step fail with a
/// timeout within the deadline — no hang, no panic — the group then
/// refuses further steps until restored, and a checkpoint restore
/// resynchronizes it bitwise with an in-process trainer that never
/// failed (the in-process side also runs its own `rank_failure_drill`).
#[test]
fn killed_rank_times_out_and_restore_resyncs_bitwise() {
    let world = 3;
    let fail_at = 4u64;
    let total = 8u64;

    let mut dp =
        DataParallelSamo::new((0..world).map(|_| model(21)).collect(), masks(), adam());
    dp.set_scaler(LossScaler::new(1024.0));
    let mut th = ThreadedDataParallelSamo::with_comm_timeout(
        (0..world).map(|_| model(21)).collect(),
        masks(),
        adam(),
        Duration::from_millis(300),
    );
    th.set_scaler(LossScaler::new(1024.0));

    for step in 0..fail_at {
        drive_inproc(&mut dp, step);
        threaded_step(&mut th, step).expect("healthy mesh");
    }
    let checkpoint = th.save();
    assert_eq!(checkpoint.as_ref(), dp.save().as_ref(), "pre-failure state diverged");
    // The in-process trainer survives its own drill without state drift.
    dp.rank_failure_drill(1).expect("in-process drill");

    // Node 1 dies: every link in and out goes dark.
    th.faults().kill_rank(1, world);
    let t0 = Instant::now();
    let err = threaded_step(&mut th, fail_at).expect_err("cut links must fail the step");
    assert!(
        err.contains("timed out"),
        "failure should surface as a rank timeout: {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "timeout must be bounded, took {:?}",
        t0.elapsed()
    );
    let dropped: u64 = th.comm_stats().iter().map(|s| s.msgs_dropped).sum();
    assert!(dropped > 0, "the dead rank's traffic was dropped, not delivered");

    // Poisoned until recovery: further steps refuse to run.
    let err2 = threaded_step(&mut th, fail_at).expect_err("group must stay poisoned");
    assert!(err2.contains("poisoned"), "got: {err2}");

    // Heal the node, restore the checkpoint, replay the failed step.
    th.faults().heal_rank(1, world);
    th.restore(&checkpoint).expect("restore after heal");
    // The checkpoint is runtime-independent: the in-process group takes
    // the bytes the threaded one wrote and stays where it was.
    dp.restore(&checkpoint).expect("in-process restore of threaded bytes");
    for step in fail_at..total {
        drive_inproc(&mut dp, step);
        threaded_step(&mut th, step).expect("healed mesh");
        assert_eq!(
            th.save().as_ref(),
            dp.save().as_ref(),
            "restored threaded group must match the never-failed in-process trainer bitwise \
             (step {step})"
        );
    }
}

/// Lockstep skip under sharding: after the reduce-scatter a rank holds
/// reduced bits on its own range only, so an overflow in rank 1's
/// *local* gradient at a position rank 0 owns is invisible to rank 1's
/// reduced range (and the mirror case; an overflow on the rank that owns
/// the position, which its peer sees neither locally nor in its reduced
/// range; and a `+inf`/`−inf` pair that meets as NaN on one owner) — the
/// flag gather must still make both ranks skip, with equal scalers and counters, and the next applied
/// step must leave exactly the sequential oracle's checkpoint bytes.
/// Gradients accumulate, so a value planted in the oracle's `p.grad`
/// before backward survives it: `inf + finite = inf`. The threaded
/// runtime streams that gradient and holds no `p.grad`; there the value
/// goes in through the product's operands ([`Tapped`]).
#[test]
fn overflow_on_one_rank_skips_every_rank_in_lockstep() {
    const W2: usize = 2; // the bias-free second weight: 4 × 10, half kept
    let ind: Vec<u32> = masks()[W2].indices().to_vec();
    let nnz = ind.len();
    // Rank 0 owns compressed positions [0, ⌈nnz/2⌉), rank 1 the rest.
    let (in_rank0, in_rank1) = (ind[0] as usize, ind[nnz - 1] as usize);
    // (rank whose local gradient overflows, dense position, value)
    let cases: [&[(usize, usize, f32)]; 4] = [
        &[(1, in_rank0, f32::INFINITY)],
        &[(0, in_rank1, f32::NEG_INFINITY)],
        &[(1, in_rank1, f32::INFINITY)],
        &[(0, in_rank1, f32::INFINITY), (1, in_rank1, f32::NEG_INFINITY)],
    ];
    for tcp in [false, true] {
        for plant in cases {
            let mut dp = DataParallelSamo::new(vec![model(9), model(9)], masks(), adam());
            dp.set_scaler(LossScaler::new(1024.0));
            let plants: [Plant; 2] = Default::default();
            let replicas = plants.iter().map(|p| tapped_model(9, p)).collect();
            let mut th = if tcp {
                let mesh = comms::TcpTransport::local_mesh(2).expect("loopback mesh");
                let faults = Arc::clone(mesh[0].faults());
                let timeout = comms::collectives::DEFAULT_TIMEOUT;
                ThreadedDataParallelSamo::with_transports(
                    replicas,
                    masks(),
                    adam(),
                    timeout,
                    mesh,
                    faults,
                )
            } else {
                ThreadedDataParallelSamo::new(replicas, masks(), adam())
            };
            th.set_scaler(LossScaler::new(1024.0));

            for step in 0..4u64 {
                let planted: Vec<(usize, usize, f32)> =
                    if step == 1 { plant.to_vec() } else { Vec::new() };
                for &(rank, at, v) in &planted {
                    dp.replica_mut(rank).params_mut()[W2].grad.as_mut_slice()[at] = v;
                }
                drive_inproc(&mut dp, step);
                for &(rank, at, v) in &planted {
                    plants[rank].lock().unwrap().push((at, v));
                }
                let applied = th
                    .step(move |rank, m, scale| {
                        let (x, t) = batch(step, rank);
                        let y = m.forward(&x);
                        let (_, mut dy) = mse(&y, &t);
                        tensor::ops::scale(scale, dy.as_mut_slice());
                        dy
                    })
                    .expect("healthy mesh");
                let ctx = format!("tcp {tcp} case {plant:?} step {step}");
                assert_eq!(applied, step != 1, "{ctx}: exactly the planted step skips");
                for p in &plants {
                    assert!(p.lock().unwrap().is_empty(), "{ctx}: planted through the operands");
                }
                assert_eq!(th.loss_scale(), dp.loss_scale(), "{ctx}: scalers");
                assert_eq!(th.steps_skipped(), dp.steps_skipped(), "{ctx}: skip counters");
                assert_eq!(th.save().as_ref(), dp.save().as_ref(), "{ctx}: checkpoint bytes");
            }
            assert_eq!((th.steps_taken(), th.steps_skipped()), (3, 1));
        }
    }
}

/// Timing never changes bits. A rank sends its overflow flag before the
/// ring tail and each parameter gather as its optimizer pass ends, then
/// waits for them together — so how fast each message travels decides
/// only when a rank waits, never what it computes or sends. Seeded jitter
/// on every link of worlds 2–4, in-process and over loopback TCP, for six
/// steps with one overflow step (planted on the last rank at a position
/// rank 0 owns): every checkpoint equals the sequential oracle's, and the
/// wire bytes after every step equal those of the same run without jitter.
#[test]
fn jittered_links_change_no_bit_and_no_byte() {
    const W2: usize = 2;
    let at = masks()[W2].indices()[0] as usize;
    for world in [2usize, 3, 4] {
        for tcp in [false, true] {
            let mut dp = DataParallelSamo::new((0..world).map(|_| model(5)).collect(), masks(), adam());
            dp.set_scaler(LossScaler::new(1024.0));
            // [without jitter, with jitter]
            let mut runs = [false, true].map(|jitter| {
                let plants: Vec<Plant> = (0..world).map(|_| Plant::default()).collect();
                let replicas = plants.iter().map(|p| tapped_model(5, p)).collect();
                let mut th = if tcp {
                    let mesh = comms::TcpTransport::local_mesh(world).expect("loopback mesh");
                    let faults = Arc::clone(mesh[0].faults());
                    let timeout = comms::collectives::DEFAULT_TIMEOUT;
                    ThreadedDataParallelSamo::with_transports(replicas, masks(), adam(), timeout, mesh, faults)
                } else {
                    ThreadedDataParallelSamo::new(replicas, masks(), adam())
                };
                th.set_scaler(LossScaler::new(1024.0));
                for (from, to) in (0..world).flat_map(|f| (0..world).map(move |t| (f, t))) {
                    if jitter && from != to {
                        let straggler = summit_sim::StragglerModel { prob: 0.3, slowdown: 4.0 };
                        let seed = (world * 100 + from * 10 + to) as u64;
                        th.faults().jitter_link(from, to, seed, straggler, Duration::from_micros(150));
                    }
                }
                (th, plants)
            });
            for step in 0..6u64 {
                let overflow = step == 2;
                if overflow {
                    dp.replica_mut(world - 1).params_mut()[W2].grad.as_mut_slice()[at] = f32::INFINITY;
                }
                drive_inproc(&mut dp, step);
                let want = dp.save();
                let mut wire = Vec::new();
                for (th, plants) in &mut runs {
                    if overflow {
                        plants[world - 1].lock().unwrap().push((at, f32::INFINITY));
                    }
                    let ctx = format!("world {world} tcp {tcp} step {step}");
                    let applied = threaded_step(th, step).expect("jitter delays, never loses");
                    assert_eq!(applied, !overflow, "{ctx}: exactly the planted step skips");
                    assert_eq!(th.save().as_ref(), want.as_ref(), "{ctx}: checkpoint bytes");
                    // Cumulative per rank: equal after every step is equal per step.
                    wire.push(th.comm_stats().iter().map(|s| s.wire_bytes).collect::<Vec<_>>());
                }
                assert_eq!(wire[0], wire[1], "world {world} tcp {tcp} step {step}: wire bytes");
            }
        }
    }
}

/// A rank-1 "group" degenerates to plain SAMO semantics and must not
/// deadlock on self-communication.
#[test]
fn world_of_one_still_steps() {
    let mut th = ThreadedDataParallelSamo::new(vec![model(3)], masks(), adam());
    th.set_scaler(LossScaler::new(256.0));
    for step in 0..3 {
        assert_eq!(threaded_step(&mut th, step), Ok(true));
    }
    assert_eq!(th.steps_taken(), 3);
    assert_eq!(th.allreduce_bytes(), 0, "no wire traffic at world 1");
}
