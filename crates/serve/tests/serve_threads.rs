//! Integration: the serving tier's thread budget.
//!
//! Execution slots are not threads: queued queries run on the threads that
//! submitted them, so starting a server adds only its accept loop, however
//! many slots it has. This binary holds one test so that no other test's
//! threads come and go in the process while it counts.

#![cfg(target_os = "linux")]

use cmr_retrieval::Embeddings;
use cmr_serve::{Engine, ServeConfig, Server};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

#[test]
fn starting_a_server_adds_only_the_accept_thread_whatever_its_slot_count() {
    let gallery = Embeddings::new(2, vec![1.0, 0.0, 0.0, 1.0]);
    let engine = Engine::exact(gallery.clone(), gallery).expect("valid galleries");
    let cfg = ServeConfig { workers: 8, ..ServeConfig::default() };

    let before = threads();
    let mut server = Server::start(engine, cfg, "127.0.0.1:0").expect("start server");
    let running = threads();
    server.shutdown();

    assert_eq!(running, before + 1, "8 execution slots must not spawn threads");
}
