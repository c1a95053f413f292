//! Rendezvous/bootstrap edge cases: full-mesh assembly, duplicate-rank
//! rejection, bounded failure on a missing world or dead address,
//! stale-epoch joins getting drained via the agreed epoch, and silent
//! strangers that delay nobody.

use comms::{
    bootstrap_tcp, BootstrapConfig, CommsError, Communicator, FaultController, HeartbeatConfig,
    Rendezvous,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::f16::F16;

fn quick_cfg() -> BootstrapConfig {
    BootstrapConfig {
        rendezvous_timeout: Duration::from_secs(10),
        connect_retries: 5,
        connect_backoff: Duration::from_millis(20),
        heartbeat: HeartbeatConfig::default(),
    }
}

#[test]
fn world_of_three_assembles_and_runs_a_collective() {
    let rdv = Rendezvous::host("127.0.0.1:0", 3).unwrap();
    let addr = rdv.addr();
    let results: Vec<Vec<F16>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let addr = addr.clone();
                s.spawn(move || {
                    let (t, info) = bootstrap_tcp(
                        &addr,
                        rank,
                        3,
                        0,
                        &quick_cfg(),
                        Arc::new(FaultController::new()),
                    )
                    .unwrap();
                    assert_eq!(info.generation, 0);
                    let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    comm.adopt_epoch(info.epoch);
                    let mut buf = vec![F16::from_f32(rank as f32); 16];
                    comm.allreduce_mean_f16(&mut buf).unwrap();
                    buf
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // mean(0, 1, 2) = 1.0 exactly.
    for buf in results {
        assert!(buf.iter().all(|x| x.to_bits() == F16::from_f32(1.0).to_bits()));
    }
}

#[test]
fn duplicate_rank_is_rejected_and_world_still_assembles() {
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let addr = rdv.addr();
    std::thread::scope(|s| {
        let legit: Vec<_> = (0..2)
            .map(|rank| {
                let addr = addr.clone();
                s.spawn(move || {
                    if rank == 1 {
                        // Let rank 1's first (legit) registration land
                        // before the impostor races it.
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    bootstrap_tcp(&addr, rank, 2, 0, &quick_cfg(), Arc::new(FaultController::new()))
                })
            })
            .collect();
        // An impostor re-registering rank 0 must get a Mismatch, not a
        // slot: its registration arrives while rank 0's is pending.
        let impostor = {
            let addr = addr.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                bootstrap_tcp(&addr, 0, 2, 0, &quick_cfg(), Arc::new(FaultController::new()))
            })
        };
        match impostor.join().unwrap() {
            Err(CommsError::Mismatch(msg)) => {
                assert!(msg.contains("already registered"), "got: {msg}");
            }
            other => panic!("impostor should be rejected, got {other:?}"),
        }
        for h in legit {
            let (t, info) = h.join().unwrap().expect("legit ranks must assemble");
            assert_eq!(info.generation, 0);
            drop(t);
        }
    });
}

#[test]
fn rendezvous_timeout_returns_err_not_hang() {
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let cfg = BootstrapConfig {
        rendezvous_timeout: Duration::from_millis(300),
        ..quick_cfg()
    };
    let t0 = Instant::now();
    // World 2, but only one rank ever registers.
    let err = bootstrap_tcp(&rdv.addr(), 0, 2, 0, &cfg, Arc::new(FaultController::new()))
        .unwrap_err();
    match err {
        CommsError::Io(msg) => assert!(msg.contains("timed out"), "got: {msg}"),
        other => panic!("expected Io timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "bounded: {:?}",
        t0.elapsed()
    );
}

#[test]
fn connect_retry_gives_up_after_budget() {
    // Grab a port, then close it: nothing listens there afterwards.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cfg = BootstrapConfig {
        connect_retries: 3,
        connect_backoff: Duration::from_millis(10),
        ..quick_cfg()
    };
    let t0 = Instant::now();
    let err = bootstrap_tcp(&dead_addr, 0, 2, 0, &cfg, Arc::new(FaultController::new()))
        .unwrap_err();
    match err {
        CommsError::Io(msg) => {
            assert!(msg.contains("gave up connecting"), "got: {msg}");
            assert!(msg.contains("3 attempts"), "got: {msg}");
        }
        other => panic!("expected Io, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10), "bounded retry budget");
}

#[test]
fn stale_epoch_join_adopts_agreed_epoch_and_drains_old_traffic() {
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let addr = rdv.addr();
    // Rank 0 rejoins claiming epoch 5 (a survivor of several
    // recoveries); rank 1 is fresh at epoch 0. Both must adopt 6.
    let results: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let addr = addr.clone();
                s.spawn(move || {
                    let my_epoch = if rank == 0 { 5 } else { 0 };
                    let (t, info) = bootstrap_tcp(
                        &addr,
                        rank,
                        2,
                        my_epoch,
                        &quick_cfg(),
                        Arc::new(FaultController::new()),
                    )
                    .unwrap();
                    assert_eq!(info.epoch, 6, "agreed epoch is max+1");
                    let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    // A stale pre-adoption message sits in flight: its
                    // tag carries the old epoch, so adoption must leave
                    // it for the drain, not feed it to a collective.
                    if rank == 0 {
                        let _ = comm.send_p2p(1, 99, 0, vec![9.0; 4]);
                    }
                    comm.adopt_epoch(info.epoch);
                    // …and the real collective still agrees bitwise.
                    let mut buf = vec![F16::from_f32((rank + 1) as f32); 8];
                    comm.allreduce_mean_f16(&mut buf).unwrap();
                    assert!(buf.iter().all(|x| x.to_bits() == F16::from_f32(1.5).to_bits()));
                    comm.epoch()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results, vec![6, 6]);
}

#[test]
fn second_generation_reuses_the_same_rendezvous() {
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let addr = rdv.addr();
    for generation in 0..2u32 {
        let infos: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let (t, info) = bootstrap_tcp(
                            &addr,
                            rank,
                            2,
                            generation, // pretend epoch grows per round
                            &quick_cfg(),
                            Arc::new(FaultController::new()),
                        )
                        .unwrap();
                        let mut comm =
                            Communicator::new(t).with_timeout(Duration::from_secs(10));
                        comm.adopt_epoch(info.epoch);
                        comm.barrier().unwrap();
                        info
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for info in infos {
            assert_eq!(info.generation, generation);
            assert_eq!(info.epoch, generation + 1);
        }
    }
}

#[test]
fn silent_strangers_ahead_of_the_world_delay_nobody() {
    // Five connections that never say a word sit in the host's lobby
    // ahead of the real ranks. Each used to cost the accept loop its 2 s
    // handshake timeout, one after the other; polled without blocking
    // they cost nothing.
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let addr = rdv.addr();
    let strangers: Vec<_> =
        (0..5).map(|_| std::net::TcpStream::connect(&addr).unwrap()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for rank in 0..2 {
            let addr = addr.clone();
            s.spawn(move || {
                let faults = Arc::new(FaultController::new());
                let (t, info) = bootstrap_tcp(&addr, rank, 2, 0, &quick_cfg(), faults).unwrap();
                assert_eq!(info.generation, 0);
                let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                comm.adopt_epoch(info.epoch);
                comm.barrier().unwrap();
            });
        }
    });
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "a world of 2 behind 5 strangers took {took:?}");
    drop(strangers);
}
