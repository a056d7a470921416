//! `ascend-cli serve` driven as a subprocess.
//!
//! `serve --listen` with the default `--duration-secs 0` runs until the
//! process is killed: the server must still answer well after start-up,
//! not drain the moment the port file is written. And `--queue-depth`
//! has one default in every serve mode: 0, i.e. 4 × workers.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ascend::fixture::{checkpoint_or_load, FixtureRecipe};
use ascend_http::client;

/// Kills the child on drop, so a failed assertion never leaks a server.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A fresh temp dir named after `tag`, holding the tiny fixture model as
/// `model.ckpt`.
fn model_dir(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ascend-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut recipe = FixtureRecipe::tiny("cli-serve-listen", 3);
    recipe.n_train = 32;
    recipe.n_test = 8;
    recipe.pre_epochs = 1;
    recipe.qat_epochs = 0;
    let (ckpt, _, _) = checkpoint_or_load(&recipe);
    let model = dir.join("model.ckpt");
    ckpt.save(&model).expect("checkpoint saves");
    (dir, model)
}

#[test]
fn smoke_traffic_defaults_to_four_queue_slots_per_worker() {
    let (dir, model) = model_dir("smoke-depth");
    let out = Command::new(env!("CARGO_BIN_EXE_ascend-cli"))
        .args(["serve", "--backend", "ref", "--workers", "2", "--requests", "2", "--images", "1"])
        .arg("--engine")
        .arg(&model)
        .output()
        .expect("run ascend-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("2 workers, queue depth 8"), "{out:?}");
    std::fs::remove_dir_all(&dir).expect("clean up temp dir");
}

#[test]
fn serve_listen_runs_until_killed_by_default() {
    let (dir, model) = model_dir("listen");
    let port_file = dir.join("addr.txt");

    let started = Instant::now();
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_ascend-cli"))
            .args(["serve", "--backend", "ref", "--workers", "1", "--listen", "127.0.0.1:0"])
            .arg("--engine")
            .arg(&model)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn ascend-cli"),
    );
    let addr: SocketAddr = loop {
        if let Some(addr) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse().ok())
        {
            break addr;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "server never wrote --port-file");
        std::thread::sleep(Duration::from_millis(20));
    };

    // Well past the moment a server that drains at start-up has exited.
    std::thread::sleep(Duration::from_millis(300));
    assert!(child.0.try_wait().expect("poll child").is_none(), "serve exited on its own");
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    client::write_request(&mut writer, "GET", "/healthz", &[], true).expect("write");
    let response = client::read_response(&mut reader).expect("healthz response");
    assert_eq!(response.status, 200);

    drop(child);
    std::fs::remove_dir_all(&dir).expect("clean up temp dir");
}
