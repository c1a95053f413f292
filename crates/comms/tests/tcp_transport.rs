//! The TCP transport behind the same collectives the in-process mesh
//! runs: bitwise ring all-reduce parity, FIFO + tag routing, fault
//! composition at enqueue time, heartbeat failure detection, and a
//! write deadline on every link.

use comms::bootstrap::Handshake;
use comms::tcp::framing::{self, FrameWriter};
use comms::{
    bootstrap_tcp, BootstrapConfig, CommsError, Communicator, FaultController, HeartbeatConfig,
    Kind, Message, Payload, Rendezvous, Tag, TcpTransport, Transport,
};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::f16::F16;

fn seeded_f16(seed: u64, n: usize) -> Vec<F16> {
    // Deterministic spread of finite f16 bit patterns.
    (0..n)
        .map(|i| {
            let x = (seed as i64 * 31 + i as i64 * 7) % 97;
            F16::from_f32(x as f32 / 16.0 - 3.0)
        })
        .collect()
}

/// The sequential oracle: exact f64 sum in rank order, one rounding.
fn oracle_mean(world: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let sum: f64 = (0..world)
                .map(|r| f64::from(seeded_f16(r as u64, n)[i].to_f32()))
                .sum();
            comms::reference::f16_mean_from_exact_sum(sum, world as f64)
        })
        .collect()
}

#[test]
fn ring_allreduce_over_tcp_is_bitwise_equal_to_oracle() {
    for world in [2usize, 4] {
        let n = 1000;
        let transports = TcpTransport::local_mesh(world).unwrap();
        let want = oracle_mean(world, n);
        let got: Vec<Vec<F16>> = std::thread::scope(|s| {
            let handles: Vec<_> = transports
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let rank = t.rank();
                        let mut comm =
                            Communicator::new(t).with_timeout(Duration::from_secs(10));
                        let mut buf = seeded_f16(rank as u64, n);
                        comm.allreduce_mean_f16(&mut buf).unwrap();
                        buf
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, buf) in got.iter().enumerate() {
            assert_eq!(
                buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "world {world}, rank {rank} diverged from the sequential oracle"
            );
        }
    }
}

#[test]
fn tcp_links_preserve_fifo_and_route_by_tag() {
    let mut mesh = TcpTransport::local_mesh(2).unwrap();
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    let tag = |id, step| Tag { epoch: 0, kind: Kind::P2p, id, step };
    for i in 0..8u64 {
        a.send(1, Message { tag: tag(i, i as u32), payload: Payload::Bytes(vec![i as u8; 3]) })
            .unwrap();
    }
    for i in 0..8u64 {
        let m = b.recv_from(0, Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(m.tag, tag(i, i as u32), "FIFO order survived framing");
        assert_eq!(m.payload, Payload::Bytes(vec![i as u8; 3]));
    }
    assert!(b.try_recv_from(0).unwrap().is_none());
    assert_eq!(a.msgs_sent(), 8);
    assert_eq!(a.bytes_sent(), 8 * (Payload::HEADER_BYTES + 3));
}

#[test]
fn injected_delay_is_stamped_at_enqueue_not_serialized() {
    // Two back-to-back messages on a 80ms-delay link must arrive about
    // 80ms after their sends — not 160ms — because the reader stamps
    // deliver_at at enqueue instead of sleeping per message.
    let faults = Arc::new(FaultController::new());
    let mut mesh =
        TcpTransport::local_mesh_with(2, Arc::clone(&faults), HeartbeatConfig::default())
            .unwrap();
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    faults.delay_link(0, 1, Duration::from_millis(80));
    let tag = |id| Tag { epoch: 0, kind: Kind::P2p, id, step: 0 };
    let t0 = Instant::now();
    a.send(1, Message { tag: tag(0), payload: Payload::F64(vec![1.0]) }).unwrap();
    a.send(1, Message { tag: tag(1), payload: Payload::F64(vec![2.0]) }).unwrap();
    assert!(b.try_recv_from(0).unwrap().is_none(), "not deliverable early");
    let deadline = Instant::now() + Duration::from_secs(5);
    let m0 = b.recv_from(0, deadline).unwrap();
    let m1 = b.recv_from(0, deadline).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(m0.tag, tag(0));
    assert_eq!(m1.tag, tag(1));
    assert!(elapsed >= Duration::from_millis(75), "delay applied ({elapsed:?})");
    assert!(
        elapsed < Duration::from_millis(160),
        "delays must not serialize: both messages took {elapsed:?}"
    );
}

#[test]
fn dropped_messages_surface_as_bounded_timeout() {
    let faults = Arc::new(FaultController::new());
    let mut mesh =
        TcpTransport::local_mesh_with(2, Arc::clone(&faults), HeartbeatConfig::default())
            .unwrap();
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    faults.drop_next(0, 1, 1);
    a.send(
        1,
        Message {
            tag: Tag { epoch: 0, kind: Kind::Barrier, id: 0, step: 0 },
            payload: Payload::Bytes(vec![]),
        },
    )
    .unwrap();
    assert_eq!(a.msgs_dropped(), 1);
    let t0 = Instant::now();
    let err = b.recv_from(0, Instant::now() + Duration::from_millis(100)).unwrap_err();
    assert_eq!(err, CommsError::Timeout { rank: 1, from: 0 });
    assert!(t0.elapsed() < Duration::from_secs(2), "bounded wait, no hang");
}

#[test]
fn heartbeat_declares_cut_peer_dead_within_window() {
    // Cutting both directions of rank 1's links starves rank 0's
    // failure detector exactly like a SIGKILLed process whose sockets
    // stayed mysteriously open: detection must come from heartbeats.
    // Asleep in a receive or in a wait on a set of links alike.
    for asleep_in_wait_any in [false, true] {
        let faults = Arc::new(FaultController::new());
        let hb = HeartbeatConfig { interval: Duration::from_millis(25), miss_limit: 4 };
        let mut mesh = TcpTransport::local_mesh_with(2, Arc::clone(&faults), hb).unwrap();
        let b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        // Let at least one heartbeat round-trip land so RTT is measured.
        std::thread::sleep(hb.interval * 3);
        assert!(!a.peer_dead(1));
        faults.kill_rank(1, 2);
        let t0 = Instant::now();
        // The wait must surface PeerDead well before this generous
        // deadline — detection is bounded by the heartbeat window.
        let deadline = Instant::now() + Duration::from_secs(30);
        let err = match asleep_in_wait_any {
            false => a.recv_from(1, deadline).unwrap_err(),
            true => a.wait_any(&[1], deadline).unwrap_err(),
        };
        let detect = t0.elapsed();
        assert_eq!(err, CommsError::PeerDead { rank: 0, peer: 1 });
        assert!(
            detect < hb.window() + Duration::from_secs(2),
            "detection took {detect:?}, window is {:?}",
            hb.window()
        );
        // Sends to a dead peer fail fast too.
        let send_err = a.send(
            1,
            Message {
                tag: Tag { epoch: 0, kind: Kind::P2p, id: 0, step: 0 },
                payload: Payload::Bytes(vec![]),
            },
        );
        assert_eq!(send_err, Err(CommsError::PeerDead { rank: 0, peer: 1 }));
        drop(b);
    }
}

#[test]
fn sigkilled_peer_surfaces_closed_via_socket_eof() {
    // Dropping the peer's transport closes its sockets — the reader
    // sees EOF and the next receive reports Closed (faster than the
    // heartbeat window, just like a real process death on localhost).
    let mut mesh = TcpTransport::local_mesh(2).unwrap();
    let b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    drop(b);
    let t0 = Instant::now();
    let err = a.recv_from(1, Instant::now() + Duration::from_secs(30)).unwrap_err();
    assert!(
        matches!(err, CommsError::Closed { rank: 0, peer: 1 })
            || matches!(err, CommsError::PeerDead { rank: 0, peer: 1 }),
        "got {err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(5), "EOF detection is fast");
    // Sends fail the same way once the kernel has the peer's reset: a
    // broken pipe is the peer's death, not an I/O fault of this rank.
    let tag = Tag { epoch: 0, kind: Kind::P2p, id: 0, step: 0 };
    let err = loop {
        match a.send(1, Message { tag, payload: Payload::Bytes(vec![0; 64]) }) {
            Ok(()) => assert!(t0.elapsed() < Duration::from_secs(5), "a dead peer's writes fail"),
            Err(e) => break e,
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        matches!(err, CommsError::Closed { rank: 0, peer: 1 } | CommsError::PeerDead { rank: 0, peer: 1 }),
        "got {err:?}"
    );
}

#[test]
fn heartbeat_rtt_gauge_is_populated() {
    let hb = HeartbeatConfig { interval: Duration::from_millis(20), miss_limit: 50 };
    let mesh =
        TcpTransport::local_mesh_with(2, Arc::new(FaultController::new()), hb).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if mesh[0].rtt_us(1).is_some() && mesh[1].rtt_us(0).is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no pong measured within 5s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn broadcast_and_barrier_work_over_tcp() {
    let world = 3;
    let transports = TcpTransport::local_mesh(world).unwrap();
    let payload = vec![7u8, 1, 9, 200];
    let results: Vec<Vec<u8>> = std::thread::scope(|s| {
        let want = payload.clone();
        let handles: Vec<_> = transports
            .into_iter()
            .map(|t| {
                let want = want.clone();
                s.spawn(move || {
                    let rank = t.rank();
                    let mut comm = Communicator::new(t).with_timeout(Duration::from_secs(10));
                    let mut buf = if rank == 0 { want } else { Vec::new() };
                    comm.broadcast_bytes(0, &mut buf).unwrap();
                    comm.barrier().unwrap();
                    buf
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, payload);
    }
}

#[test]
fn a_peer_that_stops_reading_fails_the_send_instead_of_wedging_it() {
    // Rank 1 is played by hand over raw sockets: it registers, accepts
    // rank 0's link and never reads it, and keeps its own link to rank 0
    // chatty — so the failure detector sees a live peer and the only
    // thing standing between `send` and a full socket is the writer's
    // deadline (the 200 ms heartbeat window).
    let rdv = Rendezvous::host("127.0.0.1:0", 2).unwrap();
    let cfg = BootstrapConfig {
        rendezvous_timeout: Duration::from_secs(10),
        heartbeat: HeartbeatConfig { interval: Duration::from_millis(25), miss_limit: 8 },
        ..BootstrapConfig::default()
    };
    let addr = rdv.addr();
    let rank0 = std::thread::spawn(move || {
        bootstrap_tcp(&addr, 0, 2, 0, &cfg, Arc::new(FaultController::new()))
    });
    let patient = Duration::from_secs(5);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let host = TcpStream::connect(rdv.addr()).unwrap();
    let (mut from_host, to_host) = framing::split(host, patient).unwrap();
    let register = Handshake::Register {
        rank: 1,
        world: 2,
        epoch: 0,
        addr: listener.local_addr().unwrap(),
    };
    to_host.send(&register.encode()).unwrap();
    let book = from_host.recv(|| false).unwrap().unwrap();
    let Ok(Handshake::Book { generation, addrs, .. }) = Handshake::decode(book) else {
        panic!("the host answers a full world with the address book");
    };
    let (unread, _) = listener.accept().unwrap();
    let chatty = FrameWriter::new(TcpStream::connect(addrs[0]).unwrap(), patient).unwrap();
    chatty.send(&Handshake::Preamble { rank: 1, generation }.encode()).unwrap();
    let (mut a, _) = rank0.join().unwrap().expect("rank 0 joins the hand-made world");

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let tag = Tag { epoch: 0, kind: Kind::Heartbeat, id: 0, step: 1 };
            while !done.load(Ordering::Relaxed) {
                chatty.send(&Message { tag, payload: Payload::Bytes(Vec::new()) }).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let big = || Message {
            tag: Tag { epoch: 0, kind: Kind::P2p, id: 0, step: 0 },
            payload: Payload::Bytes(vec![0; 1 << 20]),
        };
        let t0 = Instant::now();
        let err = (0..64).find_map(|_| a.send(1, big()).err());
        let stuck = t0.elapsed();
        done.store(true, Ordering::Relaxed);
        assert_eq!(err, Some(CommsError::Timeout { rank: 0, from: 1 }), "64 MB into no reader");
        assert!(stuck < Duration::from_secs(5), "gave up after {stuck:?}");
        assert!(!a.peer_dead(1), "the peer was talking all along");
        // The link is closed, not left holding half a frame.
        let t0 = Instant::now();
        assert!(matches!(a.send(1, big()), Err(CommsError::Io(_))));
        assert!(t0.elapsed() < Duration::from_millis(100), "a closed link fails at once");
    });
    let t0 = Instant::now();
    drop(a);
    assert!(t0.elapsed() < Duration::from_secs(2), "no thread of the endpoint is parked");
    drop(unread);
}
