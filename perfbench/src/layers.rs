//! Per-layer probes for the traced run: the wire codec, envelope
//! framing, the control codec, and collector intake, each driven
//! through its public API with frames sized like the workload plan's
//! messages.

use crate::checks::Accounting;
use crate::inputs::{sample, Inputs};
use bytes::Bytes;
use remo_core::{AttrId, NodeId};
use remo_obs::span;
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_DATA};
use remo_runtime::transport::{Endpoint, NetConfig, Transport};
use remo_runtime::{CollectorCore, CtrlMsg, EpochReport, TickReport, WireMessage, WireReading};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each probe repeats its operation for about this long.
const PROBE: Duration = Duration::from_millis(150);

/// Repeats `f` (which handles `units` items per call) until `PROBE`
/// has elapsed; returns nanoseconds per item.
fn ns_per_unit(units: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t.elapsed() < PROBE {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / (calls as f64 * units.max(1) as f64)
}

fn readings(count: usize, epoch: u64, seed: u64) -> Vec<WireReading> {
    (0..count)
        .map(|i| {
            let (node, attr) = (NodeId(i as u32), AttrId((i % 100) as u32));
            WireReading {
                node,
                attr,
                value: sample(seed, node, attr, epoch),
                produced: epoch,
                contributors: 1,
            }
        })
        .collect()
}

/// Mean values per message in the plan (at least 1).
fn per_message(acc: &Accounting, inp: &Inputs) -> usize {
    let values = (acc.volume - inp.cost.per_message() * acc.messages as f64) / inp.cost.per_value();
    (values / acc.messages.max(1) as f64).round().max(1.0) as usize
}

#[derive(Debug, Default)]
pub struct LayerProbe {
    pub encode_ns_per_reading: f64,
    pub decode_ns_per_reading: f64,
    pub framing_ns_per_envelope: f64,
    pub ctrl_ns_per_msg: f64,
    pub intake_ns_per_value: f64,
}

pub fn probe(inp: &Inputs, acc: &Accounting, arq: bool) -> LayerProbe {
    let m = per_message(acc, inp);
    let msg = WireMessage::data(0, NodeId(1), 1, readings(m, 1, inp.value_seed));
    let frame = msg.encode();
    let mut out = LayerProbe::default();
    {
        let _s = span!("runtime.proto.encode");
        out.encode_ns_per_reading = ns_per_unit(m, || {
            black_box(black_box(&msg).encode());
        });
    }
    {
        let _s = span!("runtime.proto.decode");
        out.decode_ns_per_reading = ns_per_unit(m, || {
            black_box(WireMessage::decode(black_box(frame.clone())).is_ok());
        });
    }

    // A stream of 256 envelopes carrying the plan-sized frame, fed to
    // the decoder in 4 KiB segments as a socket would deliver it.
    const ENVELOPES: usize = 256;
    let mut stream = Vec::new();
    for i in 0..ENVELOPES {
        let env = Envelope {
            dest: i as u32,
            chan: CHAN_DATA,
            sent_epoch: 1,
            payload: frame.clone(),
        };
        stream.extend_from_slice(&env.encode());
    }
    {
        let _s = span!("runtime.framing.decode");
        out.framing_ns_per_envelope = ns_per_unit(ENVELOPES, || {
            let mut dec = FrameDecoder::new();
            let mut n = 0;
            for chunk in stream.chunks(4096) {
                dec.push(chunk);
                while let Ok(Some(env)) = dec.try_next() {
                    black_box(&env);
                    n += 1;
                }
            }
            assert_eq!(n, ENVELOPES, "framing lost envelopes");
        });
    }

    let report = CtrlMsg::Report {
        report: TickReport {
            node: NodeId(7),
            epoch: 42,
            sent_messages: 3,
            sent_readings: m as u32,
            volume: 12.5,
            ..TickReport::default()
        },
    };
    let tick = CtrlMsg::Tick { epoch: 42 };
    {
        let _s = span!("runtime.ctrl.codec");
        out.ctrl_ns_per_msg = ns_per_unit(2, || {
            black_box(CtrlMsg::decode(black_box(&tick).encode()).is_ok());
            black_box(CtrlMsg::decode(black_box(&report).encode()).is_ok());
        });
    }

    let _s = span!("runtime.collector.intake");
    out.intake_ns_per_value = intake(inp, acc, arq);
    out
}

#[derive(Debug)]
struct NullTransport;

impl Transport for NullTransport {
    fn send_data(&self, _: NodeId, _: Endpoint, _: u64, _: u64, _: Bytes) {}
    fn send_ack(&self, _: Endpoint, _: NodeId, _: u32, _: u64, _: u64) {}
    fn reliable(&self) -> bool {
        false
    }
}

/// `CollectorCore` intake of one epoch's root frames (one frame per
/// tree root, carrying that root's planned payload), repeated over
/// fresh epochs; nanoseconds per value.
fn intake(inp: &Inputs, acc: &Accounting, arq: bool) -> f64 {
    const EPOCHS: u64 = 64;
    let values: usize = acc.root_loads.iter().sum();
    if values == 0 {
        return 0.0;
    }
    // Pre-encode every epoch's frames so the timed loop is intake only;
    // ARQ frames need fresh sequence numbers or dedup would drop them.
    let mut frames: Vec<Vec<(u64, Bytes)>> = Vec::new();
    for e in 1..=EPOCHS {
        frames.push(
            acc.root_loads
                .iter()
                .enumerate()
                .map(|(k, &load)| {
                    let msg =
                        WireMessage::data(k as u32, NodeId(k as u32), e, readings(load, e, 1));
                    (e, msg.encode())
                })
                .collect(),
        );
    }
    let capacity = inp.caps.collector().max(1e12);
    let net = NetConfig {
        ingress_capacity: 1 << 24,
        ..inp.net
    };
    let mut total = Duration::ZERO;
    let mut rounds = 0;
    while rounds < 3 || total < PROBE {
        let mut core = CollectorCore::new(capacity, inp.cost, net, inp.catalog.clone());
        let mut report = EpochReport::default();
        let t = Instant::now();
        for epoch_frames in &frames {
            core.refill();
            for (e, f) in epoch_frames {
                if arq {
                    core.accept_arq(*e, *e, f.clone(), &NullTransport, &mut report);
                } else {
                    core.accept_perfect(*e, f.clone(), &mut report);
                }
            }
            if arq {
                core.drain_arq(epoch_frames[0].0, &mut report);
            }
        }
        total += t.elapsed();
        assert_eq!(
            report.delivered_values,
            values as u64 * EPOCHS,
            "intake lost values"
        );
        rounds += 1;
    }
    total.as_nanos() as f64 / (rounds as f64 * values as f64 * EPOCHS as f64)
}
