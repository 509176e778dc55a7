//! Integration test for the incremental materialized-view service:
//! concurrent readers on the worker pool while a writer streams insert
//! batches, snapshot immutability under their feet, and the TCP front end
//! end-to-end on a loopback socket.

use linrec::prelude::*;
use linrec::service::{serve_tcp, Session, ViewDef, ViewService, WorkerPool};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn chain_service(n: i64) -> Arc<ViewService> {
    let mut db = Database::new();
    db.set_relation("e", (0..n).map(|i| (i, i + 1)).collect::<Relation>());
    let service = Arc::new(ViewService::new(db));
    service
        .register_view(ViewDef {
            name: "tc".into(),
            rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
            seed: Symbol::new("e"),
        })
        .unwrap();
    service
}

#[test]
fn concurrent_readers_see_consistent_epochs_while_batches_land() {
    let service = chain_service(60);
    let pool = WorkerPool::new(4);
    let stop = Arc::new(AtomicBool::new(false));

    // Readers hammer snapshots: within one snapshot, the count must be
    // stable and the epoch monotone across grabs.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            pool.submit(move || {
                let mut last_epoch = 0u64;
                let mut observations = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    assert!(snap.epoch >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch;
                    let count = snap.count("tc").unwrap();
                    std::thread::yield_now();
                    assert_eq!(snap.count("tc").unwrap(), count, "snapshot mutated");
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Writer: 20 batches extending the chain (and some shortcuts).
    let mut expected_db = service.snapshot().db.snapshot();
    for i in 0..20i64 {
        let batch = vec![
            (
                Symbol::new("e"),
                vec![Value::Int(60 + i), Value::Int(61 + i)],
            ),
            (Symbol::new("e"), vec![Value::Int(i), Value::Int(60 + i)]),
        ];
        for (pred, tuple) in &batch {
            expected_db.insert_tuple(*pred, tuple);
        }
        let report = service.apply_batch(batch).unwrap();
        assert!(report.inserted >= 1);
    }
    stop.store(true, Ordering::Relaxed);
    for rx in readers {
        let observations = rx.recv().unwrap();
        assert!(observations > 0, "reader never observed a snapshot");
    }

    // Final state equals the from-scratch fixpoint over the final EDB.
    let rules = vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()];
    let init = expected_db.relation_or_empty(Symbol::new("e"), 2);
    let scratch = Plan::direct(rules).execute(&expected_db, &init).unwrap();
    let snap = service.snapshot();
    assert_eq!(
        snap.view("tc").unwrap().relation.sorted(),
        scratch.relation.sorted()
    );
    assert_eq!(snap.epoch, 21); // registration + 20 batches
}

#[test]
fn sessions_in_parallel_commit_and_observe_each_other() {
    let service = chain_service(10);
    let pool = WorkerPool::new(3);
    // Three sessions each commit a disjoint chain extension; every commit
    // is atomic, so the final view must contain all of them.
    let rxs: Vec<_> = (0..3i64)
        .map(|k| {
            let service = Arc::clone(&service);
            pool.submit(move || {
                let mut session = Session::new(service);
                let base = 100 + 10 * k;
                session.handle(&format!("insert e 10 {base}"));
                session.handle(&format!("insert e {base} {}", base + 1));
                let reply = session.handle("commit");
                assert!(reply.text.starts_with("ok epoch"), "{}", reply.text);
                reply.text
            })
        })
        .collect();
    for rx in rxs {
        rx.recv().unwrap();
    }
    let snap = service.snapshot();
    for k in 0..3i64 {
        let base = 100 + 10 * k;
        assert!(snap
            .contains("tc", &[Value::Int(0), Value::Int(base + 1)])
            .unwrap());
    }
    assert_eq!(snap.epoch, 4); // registration + three commits
}

#[test]
fn tcp_front_end_round_trips() {
    let service = chain_service(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let pool = WorkerPool::new(2);
            serve_tcp(service, listener, &pool);
        })
    };

    let send = |commands: &str| -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let reader = BufReader::new(stream);
        writer.write_all(commands.as_bytes()).unwrap();
        writer.flush().unwrap();
        reader.lines().map(|l| l.unwrap()).collect()
    };

    let replies = send("count tc\nask tc 0 5\ninsert e 5 6\ncommit\nask tc 0 6\nquit\n");
    assert_eq!(replies[0], "ok count 15");
    assert_eq!(replies[1], "ok true");
    assert!(
        replies[3].starts_with("ok epoch 2 inserted 1/1"),
        "{}",
        replies[3]
    );
    assert_eq!(replies[4], "ok true");
    assert_eq!(replies.last().unwrap(), "ok bye");

    // A second connection observes the first connection's commit.
    let replies = send("count tc\nquit\n");
    assert_eq!(replies[0], "ok count 21");

    // The server thread blocks in accept(); leak it rather than join.
    drop(server);
}

#[test]
fn a_panicking_tcp_session_leaves_concurrent_sessions_serving() {
    // One client triggers a deliberate in-handler panic (the `inject`
    // test command, enabled via LINREC_FAULT_INJECTION). The blast
    // radius must be exactly that session: it gets a typed `err internal`
    // line and a closed connection, the pool worker survives, and other
    // concurrent sessions — including ones accepted afterwards on the
    // same worker — keep reading and committing.
    std::env::set_var("LINREC_FAULT_INJECTION", "1");
    let service = chain_service(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            // One worker: if the panic killed it, every later connect
            // below would hang instead of being served.
            let pool = WorkerPool::new(1);
            serve_tcp(service, listener, &pool);
        })
    };
    let send = |commands: &str| -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let reader = BufReader::new(stream);
        writer.write_all(commands.as_bytes()).unwrap();
        writer.flush().unwrap();
        reader.lines().map(|l| l.unwrap()).collect()
    };

    let replies = send("count tc\ninject panic\nnever reached\n");
    assert_eq!(replies[0], "ok count 15");
    assert_eq!(
        replies[1],
        "err internal request handler panicked; closing session"
    );
    assert_eq!(replies.len(), 2, "session must close after the panic");

    // The single worker survived the panic: fresh sessions serve, write,
    // and observe a consistent service.
    for round in 0..3 {
        let replies = send(&format!(
            "ready\ninsert e {} {}\ncommit\nquit\n",
            5 + round,
            6 + round
        ));
        assert_eq!(replies[0], "ok ready", "round {round}: {replies:?}");
        assert!(
            replies[2].starts_with(&format!("ok epoch {}", 2 + round)),
            "round {round}: {replies:?}"
        );
    }
    assert_eq!(service.snapshot().epoch, 4);
    drop(server);
}
