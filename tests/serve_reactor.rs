//! Reactor torture tests: the event-driven serving tier under hostile
//! and high-scale traffic, driven over real loopback TCP.
//!
//! These cover the contracts `DESIGN.md` §16 pins down:
//!
//! * frame reassembly is byte-boundary agnostic — fragmented,
//!   coalesced, and pipelined frames all decode, and pipelined replies
//!   come back in request order;
//! * malformed framing is answered once (`BadRequest`) and the
//!   connection is closed; admission rejections (including non-finite
//!   payloads) keep it open;
//! * a connection above the cap receives an explicit `Busy`, never a
//!   silent drop;
//! * slow-loris connections (bytes trickling, nothing in flight) are
//!   evicted on the idle timeout;
//! * a thousand concurrent sockets are served correctly through one
//!   reactor thread;
//! * hot reload under load flips traffic to the new model set with zero
//!   dropped requests and bitwise-correct responses on both sides;
//! * graceful drain answers everything admitted, then exits.

use pv_nn::{models, Mode};
use pv_prune::{PruneContext, PruneMethod, WeightThresholding};
use pv_serve::protocol::{encode_request, read_frame};
use pv_serve::{serve, BatchConfig, Client, ModelRegistry, Request, ServerConfig, Status};
use pv_tensor::{Rng, Tensor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const IN_DIM: usize = 12;
const CLASSES: usize = 4;

fn registry_with_seed(seed: u64) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.insert(
        "parent",
        models::mlp("parent", IN_DIM, &[24, 16], CLASSES, false, seed),
    )
    .expect("parent admits");
    reg
}

fn sample(seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    Tensor::rand_uniform(&[IN_DIM], -1.0, 1.0, &mut rng)
}

fn direct_bits(seed: u64, x: &Tensor) -> Vec<u32> {
    registry_with_seed(seed)
        .get("parent")
        .cloned()
        .expect("model registered")
        .forward(&x.clone().reshape(&[1, IN_DIM]), Mode::Eval)
        .reshape(&[CLASSES])
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn start(cfg: ServerConfig) -> pv_serve::ServerHandle {
    serve(
        registry_with_seed(11),
        cfg,
        Arc::new(pv_obs::MonotonicClock::new()),
    )
    .expect("server starts")
}

fn request_frame(model: &str, x: &Tensor) -> Vec<u8> {
    encode_request(&Request {
        model: model.to_string(),
        input: x.clone(),
    })
    .expect("request encodes")
}

#[test]
fn fragmented_coalesced_and_pipelined_frames_reassemble_in_order() {
    let mut handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // 1) one frame dribbled in 3-byte fragments across many writes
    let xs: Vec<Tensor> = (0..3).map(|s| sample(90 + s)).collect();
    let frame = request_frame("parent", &xs[0]);
    for chunk in frame.chunks(3) {
        stream.write_all(chunk).expect("fragment write");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let body = read_frame(&mut stream)
        .expect("frame reads")
        .expect("response present");
    let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
    assert_eq!(resp.status, Status::Ok);
    let got: Vec<u32> = resp
        .output
        .expect("logits")
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, direct_bits(11, &xs[0]), "fragmented frame");

    // 2) two pipelined requests coalesced into a single write: replies
    //    must come back complete and in request order
    let mut blob = request_frame("parent", &xs[1]);
    blob.extend_from_slice(&request_frame("parent", &xs[2]));
    stream.write_all(&blob).expect("coalesced write");
    for x in &xs[1..] {
        let body = read_frame(&mut stream)
            .expect("frame reads")
            .expect("response present");
        let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
        assert_eq!(resp.status, Status::Ok);
        let got: Vec<u32> = resp
            .output
            .expect("logits")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            got,
            direct_bits(11, x),
            "pipelined replies in request order"
        );
    }
    handle.shutdown();
}

#[test]
fn malformed_framing_answers_bad_request_then_closes() {
    let mut handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // a length prefix far past MAX_FRAME_BYTES: unrecoverable framing
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("poison prefix");
    let body = read_frame(&mut stream)
        .expect("reply frame reads")
        .expect("reply present");
    let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
    assert_eq!(resp.status, Status::BadRequest);
    // ...and then EOF: framing errors cost the connection
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("peer closes cleanly");
    assert_eq!(n, 0, "no bytes after the rejection");
    handle.shutdown();
}

#[test]
fn nonfinite_payloads_are_rejected_before_the_csr_kernels() {
    // a WT-95% member: insert builds CSR sidecars, so the default backend
    // skips zero weights, which matches the oracle for finite inputs only
    let mut wt95 = models::mlp("wt95", IN_DIM, &[24, 16], CLASSES, false, 5);
    WeightThresholding.prune(&mut wt95, 0.95, &PruneContext::data_free());
    let mut reg = ModelRegistry::new();
    reg.insert("wt95", wt95).expect("member admits");
    let mut served = reg.get("wt95").cloned().expect("model registered");
    // idempotent: counts the sidecars admission already built
    assert!(served.prepare_sparse(pv_tensor::DEFAULT_MAX_DENSITY) > 0);

    let mut handle = serve(
        reg,
        ServerConfig::default(),
        Arc::new(pv_obs::MonotonicClock::new()),
    )
    .expect("server starts");
    let mut client =
        Client::connect(&handle.addr().to_string(), Duration::from_secs(10)).expect("connect");
    for bad in [f32::NAN, f32::INFINITY] {
        let mut x = sample(70);
        x.data_mut()[3] = bad;
        let resp = client.request("wt95", &x).expect("answered");
        assert_eq!(resp.status, Status::BadRequest, "{bad} payload");
        assert!(resp.output.is_none());
    }
    // the rejection keeps the connection: a finite payload on it still
    // gets the scalar oracle's logits bit for bit
    let x = sample(71);
    let got = client.infer("wt95", &x).expect("finite payload served");
    let want = pv_tensor::with_backend(&pv_tensor::SCALAR, || {
        served.forward(&x.clone().reshape(&[1, IN_DIM]), Mode::Eval)
    });
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want));
    handle.shutdown();
}

#[test]
fn connection_cap_answers_busy_explicitly() {
    let mut handle = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let _a = TcpStream::connect(addr).expect("conn 1");
    let _b = TcpStream::connect(addr).expect("conn 2");
    // the reactor needs a beat to register both before the third arrives
    std::thread::sleep(Duration::from_millis(100));
    let mut c = TcpStream::connect(addr).expect("conn 3 connects at TCP level");
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = read_frame(&mut c)
        .expect("busy frame reads")
        .expect("busy frame present");
    let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
    assert_eq!(resp.status, Status::Busy, "cap rejection is explicit");
    handle.shutdown();
}

#[test]
fn slow_loris_connections_are_evicted_on_idle_timeout() {
    let mut handle = start(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // trickle half a length prefix, then stall with nothing in flight
    stream.write_all(&[0x0a, 0x00]).expect("partial prefix");
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("server closes the socket");
    assert_eq!(n, 0, "idle slow-loris connection is evicted");
    handle.shutdown();
}

#[test]
fn a_thousand_concurrent_sockets_are_served() {
    let mut handle = start(ServerConfig {
        max_connections: 1100,
        workers: 2,
        batch: BatchConfig {
            max_batch: 16,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 2048,
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let x = sample(7);
    let expected = direct_bits(11, &x);
    let frame = request_frame("parent", &x);

    const CONNS: usize = 1000;
    let mut socks = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        socks.push(s);
    }
    // all sockets write their request before any reply is consumed: the
    // reactor must hold 1000 live connections with queued replies
    for s in &mut socks {
        s.write_all(&frame).expect("request write");
    }
    let mut ok = 0usize;
    for s in &mut socks {
        let body = read_frame(s).expect("frame reads").expect("reply present");
        let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
        let got: Vec<u32> = resp
            .output
            .expect("logits")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expected, "soak responses bitwise correct");
        ok += 1;
    }
    assert_eq!(ok, CONNS);
    handle.shutdown();
}

#[test]
fn hot_reload_under_load_is_bitwise_correct_and_monotone() {
    // workers = 1 makes the generation flip monotone: once the single
    // worker refreshes, no later batch can run the old model set
    let reload: pv_serve::ReloadFn = Arc::new(|arg: &str| {
        let seed: u64 = arg
            .parse()
            .map_err(|_| pv_tensor::Error::Serve(format!("bad reload arg '{arg}'")))?;
        Ok(registry_with_seed(seed))
    });
    let mut handle = start(ServerConfig {
        workers: 1,
        reload: Some(reload),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();
    let io = Duration::from_secs(10);
    let x = sample(3);
    let bits_a = direct_bits(11, &x);
    let bits_b = direct_bits(47, &x);
    assert_ne!(
        bits_a, bits_b,
        "the two generations must be distinguishable"
    );

    let mut client = Client::connect(&addr, io).expect("connect");
    assert_eq!(handle.generation(), 1);

    // load keeps flowing across the swap: every response must be bitwise
    // A or bitwise B, the flip must be monotone, and nothing may fail
    let mut phases: Vec<char> = Vec::new();
    for i in 0..40 {
        if i == 16 {
            let msg = {
                let mut ctl = Client::connect(&addr, io).expect("control connect");
                ctl.reload("47").expect("reload succeeds")
            };
            assert!(msg.contains("generation 2"), "got: {msg}");
            assert_eq!(handle.generation(), 2);
        }
        let out = client.infer("parent", &x).expect("infer survives reload");
        let got: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
        if got == bits_a {
            phases.push('a');
        } else if got == bits_b {
            phases.push('b');
        } else {
            panic!("request {i}: response matches neither generation");
        }
    }
    let joined: String = phases.iter().collect();
    assert!(
        !joined.contains("ba"),
        "generation flip must be monotone, got {joined}"
    );
    assert!(
        joined.ends_with('b'),
        "traffic must flip to the new set: {joined}"
    );
    assert!(
        joined.starts_with('a'),
        "traffic starts on the old set: {joined}"
    );
    handle.shutdown();
}

#[test]
fn reload_without_a_handler_is_a_typed_rejection() {
    let mut handle = start(ServerConfig::default());
    let mut client =
        Client::connect(&handle.addr().to_string(), Duration::from_secs(10)).expect("connect");
    let resp = client
        .control(pv_serve::ControlOp::Reload, "anything")
        .expect("control roundtrips");
    assert_eq!(resp.status, Status::BadRequest);
    // the connection survives a control rejection
    let out = client.infer("parent", &sample(1)).expect("still serving");
    assert_eq!(out.shape(), &[CLASSES]);
    handle.shutdown();
}

#[test]
fn drain_answers_everything_admitted_then_exits() {
    let mut handle = start(ServerConfig {
        workers: 1,
        batch: BatchConfig {
            max_batch: 8,
            // a long deadline parks admitted jobs in the queue so the
            // drain demonstrably finishes work it accepted earlier
            batch_deadline: Duration::from_millis(200),
            queue_capacity: 64,
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let x = sample(21);
    let expected = direct_bits(11, &x);

    // pipeline 4 requests, give the reactor time to admit them...
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let frame = request_frame("parent", &x);
    for _ in 0..4 {
        stream.write_all(&frame).expect("pipelined write");
    }
    std::thread::sleep(Duration::from_millis(50));

    // ...then drain over the wire
    let msg = {
        let mut ctl =
            Client::connect(&addr.to_string(), Duration::from_secs(10)).expect("control connect");
        ctl.drain().expect("drain acknowledged")
    };
    assert!(msg.contains("draining"), "got: {msg}");

    // every admitted request is still answered, correctly and in order
    for i in 0..4 {
        let body = read_frame(&mut stream)
            .expect("reply frame reads")
            .unwrap_or_else(|| panic!("reply {i} dropped by drain"));
        let resp = pv_serve::protocol::decode_response(&body).expect("decodes");
        assert_eq!(resp.status, Status::Ok, "reply {i}: {}", resp.message);
        let got: Vec<u32> = resp
            .output
            .expect("logits")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expected, "drained reply {i} bitwise correct");
    }
    // ...then the connection closes and the server exits
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("clean close");
    assert_eq!(n, 0);
    handle.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server no longer accepts"
    );
    handle.shutdown();
}
