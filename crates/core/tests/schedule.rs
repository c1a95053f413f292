//! Property test of the pipeline's one scheduling state machine,
//! `samo::pipeline::Schedule`: a whole pipeline of them, driven by random
//! interleavings of message deliveries and op completions, must keep
//! every ordering and memory bound the runtime and the simulator rely on,
//! and finish.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use samo::pipeline::{Msg, Next, Op, Schedule};

/// One stage and what the test saw of it.
struct Stage {
    sched: Schedule,
    /// Fs, Bs and Ws run.
    ran: [usize; 3],
    /// Messages sent to this stage, and delivered to it: `[act, grad]`.
    sent: [usize; 2],
    delivered: [usize; 2],
    done: bool,
}

/// Runs one pipeline to the end under the interleaving `seed` picks and
/// checks every invariant on the way.
fn run(stages: usize, m: usize, max_in_flight: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut st: Vec<Stage> = (0..stages)
        .map(|s| Stage {
            sched: Schedule::new(s, stages, m, max_in_flight),
            ran: [0; 3],
            sent: [0; 2],
            delivered: [0; 2],
            done: false,
        })
        .collect();
    loop {
        // With nothing on the wire and every stage waiting, nothing can
        // ever happen again: that is the end, or a deadlock.
        let on_wire = st.iter().any(|x| x.delivered != x.sent);
        if !on_wire && st.iter().all(|x| x.done || matches!(x.sched.next(), Next::Wait { .. })) {
            prop_assert!(st.iter().all(|x| x.done), "deadlock");
            return Ok(());
        }
        // Everything that can happen next: a message delivered or a stage
        // asked for its next op.
        let mut moves = Vec::new();
        for (s, x) in st.iter().enumerate() {
            for link in 0..2 {
                if x.delivered[link] < x.sent[link] {
                    moves.push((s, Some(link)));
                }
            }
            if !x.done {
                moves.push((s, None));
            }
        }
        let (s, deliver) = moves[rng.gen_range(0..moves.len())];
        let (first, last) = (s == 0, s + 1 == stages);
        let x = &mut st[s];
        if let Some(link) = deliver {
            let mb = x.delivered[link];
            let msg = if link == 0 { Msg::Act(mb) } else { Msg::Grad(mb) };
            prop_assert!(x.sched.expected().contains(&Some(msg)), "stage {s}: {msg:?} not expected");
            x.sched.arrived(msg);
            x.delivered[link] += 1;
            continue;
        }
        let [f, b, w] = x.ran;
        let op = match x.sched.next() {
            Next::Done => {
                prop_assert_eq!(x.ran, [m; 3], "stage {}: Done early", s);
                x.done = true;
                continue;
            }
            Next::Wait { downstream, upstream } => {
                prop_assert!(downstream || upstream, "stage {s} waits on no link");
                if downstream {
                    prop_assert!(!last && b < m && x.delivered[1] == b, "stage {s}: no gradient missing");
                }
                if upstream {
                    prop_assert!(!first && f < m && x.delivered[0] == f, "stage {s}: no activation missing");
                }
                continue;
            }
            Next::Run(op) => op,
        };
        match op {
            Op::F(mb) => {
                prop_assert_eq!(mb, f, "stage {}: F out of order", s);
                prop_assert!(first || x.delivered[0] > mb, "stage {s}: F({mb}) before its activation");
                prop_assert!(f + 1 - b <= max_in_flight, "stage {s}: window exceeded");
            }
            Op::B(mb) => {
                prop_assert_eq!(mb, b, "stage {}: B out of order", s);
                let ready = if last { f > mb } else { x.delivered[1] > mb };
                prop_assert!(ready, "stage {s}: B({mb}) before its gradient");
                prop_assert!(b - w <= 1, "stage {s}: B behind two pending Ws");
            }
            Op::W(mb) => {
                prop_assert_eq!(mb, w, "stage {}: W out of order", s);
                prop_assert!(b > mb, "stage {s}: W({mb}) before its B");
            }
        }
        x.sched.done(op);
        let kind = match op {
            Op::F(_) => 0,
            Op::B(_) => 1,
            Op::W(_) => 2,
        };
        x.ran[kind] += 1;
        prop_assert!(x.ran[1] - x.ran[2] <= 2, "stage {s}: more than two Ws pending");
        // The boundary message the op produces.
        match op {
            Op::F(_) if !last => st[s + 1].sent[0] += 1,
            Op::B(_) if !first => st[s - 1].sent[1] += 1,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_interleaving_keeps_the_schedule_and_finishes(
        stages in 1usize..6,
        m in 1usize..12,
        max_in_flight in 1usize..6,
        seed in any::<u64>(),
    ) {
        run(stages, m, max_in_flight, seed)?;
    }
}
