//! A daemon whose listener cannot bind fails to start and leaves no
//! thread behind. This file holds one test, so its process runs no other
//! daemon whose threads the count could see.

use bist_bistd::{Daemon, DaemonConfig};
use std::net::TcpListener;

/// The names of this process's threads. A new thread names itself once
/// it runs, so a count taken at once sees it before its name does.
#[cfg(target_os = "linux")]
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn a_failed_bind_returns_an_error_and_spawns_nothing() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let port = taken.local_addr().expect("bound address").port();
    let socket = std::env::temp_dir().join(format!("bistd-bind-{}.sock", std::process::id()));
    let missing_dir = std::env::temp_dir()
        .join(format!("bistd-no-such-dir-{}", std::process::id()))
        .join("b.sock");
    let configs = [
        // The TCP port is taken; the Unix socket would bind.
        DaemonConfig {
            tcp: Some(format!("127.0.0.1:{port}")),
            unix: Some(socket.clone()),
            ..DaemonConfig::default()
        },
        // The TCP listener binds; the Unix socket's directory is missing.
        DaemonConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(missing_dir),
            ..DaemonConfig::default()
        },
    ];
    for config in configs {
        #[cfg(target_os = "linux")]
        let before = threads().len();
        match Daemon::start(config.clone()) {
            Ok(_) => panic!("{config:?} started"),
            Err(err) => assert_ne!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}"),
        }
        assert!(!socket.exists(), "{config:?} left its socket file");
        #[cfg(target_os = "linux")]
        {
            assert_eq!(threads().len(), before, "{config:?} left threads behind");
            std::thread::sleep(std::time::Duration::from_millis(100));
            let daemon: Vec<String> =
                threads().into_iter().filter(|name| name.starts_with("bistd-")).collect();
            assert_eq!(daemon, Vec::<String>::new(), "{config:?}");
        }
    }
    drop(taken);
}
