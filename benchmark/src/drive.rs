//! Closed-loop request drivers: how a generated segment reaches the program
//! on each path, how its latencies are taken, and how every reply is
//! checked.
//!
//! Latency is submit-to-reply as the generator sees it. Every loop is
//! closed: a generator thread sends its next request only when one of its
//! `in_flight` slots frees up, so a slower program is offered less load,
//! never a growing queue.

use crate::gen::Request;
use ofscil::prelude::{
    OFscilModel, PendingResponse, ServeClient, ServeRequest, ServeResponse, WireClient,
};
use std::collections::VecDeque;
use std::time::Instant;

/// What one timed segment produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Submit-to-reply latency of every `Infer`, microseconds.
    pub infer_us: Vec<f64>,
    /// Submit-to-reply latency of every `LearnOnline`, microseconds.
    pub learn_us: Vec<f64>,
    /// Requests that errored, were refused, or named the wrong class.
    pub failed: u64,
    /// Wall time from the first submit to the last reply, seconds.
    pub wall_s: f64,
}

impl Samples {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        (self.infer_us.len() + self.learn_us.len()) as u64
    }

    fn record(&mut self, learn: bool, started: Instant, ok: bool) {
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        if learn {
            self.learn_us.push(us);
        } else {
            self.infer_us.push(us);
        }
        if !ok {
            self.failed += 1;
        }
    }

    fn absorb(&mut self, other: Samples) {
        self.infer_us.extend(other.infer_us);
        self.learn_us.extend(other.learn_us);
        self.failed += other.failed;
    }
}

/// `true` when `reply` is the correct answer to a request labelled `label`.
pub fn reply_is_correct<E>(reply: &Result<ServeResponse, E>, label: usize) -> bool {
    match reply {
        Ok(ServeResponse::Prediction { class, .. }) => *class == label,
        Ok(ServeResponse::Learned { classes, .. }) => classes.contains(&label),
        _ => false,
    }
}

/// Runs one request straight on a model (the `Direct` path) and reports
/// whether the outcome was correct.
pub fn call_model(model: &mut OFscilModel, request: ServeRequest, label: usize) -> bool {
    match request {
        ServeRequest::Infer { mut image, .. } => {
            let mut dims = vec![1];
            dims.extend_from_slice(image.dims());
            image.reshape_in_place(&dims).is_ok()
                && matches!(model.predict(&image).as_deref(), Ok([class]) if *class == label)
        }
        ServeRequest::LearnOnline { batch, .. } => model.learn_classes_online(&batch).is_ok(),
        _ => false,
    }
}

/// Where a workload's requests go, plus a count of what was sent there (the
/// routed workload's accounting gate compares it with the shards' own
/// counters).
pub struct Endpoint<'a> {
    target: Target<'a>,
    /// Requests sent through this endpoint so far.
    pub sent: u64,
}

/// The entry point behind an [`Endpoint`].
pub enum Target<'a> {
    /// The model itself, on the calling thread.
    Model(Box<OFscilModel>),
    /// An in-process serving runtime; one generator thread keeps
    /// `in_flight` requests outstanding.
    Serve {
        /// Handle into the running `ServeRuntime`.
        client: &'a ServeClient,
        /// Requests kept outstanding.
        in_flight: usize,
    },
    /// One blocking wire connection per generator thread, one request in
    /// flight on each.
    Wire(Vec<WireClient>),
}

impl<'a> Endpoint<'a> {
    /// An endpoint that has sent nothing yet.
    pub fn new(target: Target<'a>) -> Self {
        Endpoint { target, sent: 0 }
    }

    /// Sends every lane's requests (one lane per generator thread) and
    /// waits for every reply.
    pub fn run(&mut self, lanes: Vec<Vec<Request>>) -> Samples {
        self.sent += lanes.iter().map(|lane| lane.len() as u64).sum::<u64>();
        let started = Instant::now();
        let mut samples = Samples::default();
        match &mut self.target {
            Target::Model(model) => {
                for r in lanes.into_iter().flatten() {
                    let learn = r.is_learn();
                    let t = Instant::now();
                    let ok = call_model(model, r.request, r.label);
                    samples.record(learn, t, ok);
                }
            }
            Target::Serve { client, in_flight } => {
                let mut window: VecDeque<(PendingResponse, bool, usize, Instant)> =
                    VecDeque::with_capacity(*in_flight);
                let reap =
                    |samples: &mut Samples, slot: (PendingResponse, bool, usize, Instant)| {
                        let (pending, learn, label, t) = slot;
                        let reply = pending.wait();
                        samples.record(learn, t, reply_is_correct(&reply, label));
                    };
                for r in lanes.into_iter().flatten() {
                    if window.len() == *in_flight {
                        let slot = window.pop_front().expect("window is full");
                        reap(&mut samples, slot);
                    }
                    let learn = r.is_learn();
                    let t = Instant::now();
                    window.push_back((client.submit(r.request), learn, r.label, t));
                }
                for slot in window {
                    reap(&mut samples, slot);
                }
            }
            Target::Wire(clients) => {
                assert_eq!(clients.len(), lanes.len(), "one lane per connection");
                let parts: Vec<Samples> = std::thread::scope(|scope| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .zip(lanes)
                        .map(|(client, lane)| {
                            scope.spawn(move || {
                                let mut part = Samples::default();
                                for r in lane {
                                    let learn = r.is_learn();
                                    let t = Instant::now();
                                    let reply = client.call(r.request);
                                    part.record(learn, t, reply_is_correct(&reply, r.label));
                                }
                                part
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("generator thread panicked"))
                        .collect()
                });
                parts.into_iter().for_each(|part| samples.absorb(part));
            }
        }
        samples.wall_s = started.elapsed().as_secs_f64();
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil::prelude::ServeError;

    #[test]
    fn replies_are_checked_against_the_label() {
        let prediction = |class| -> Result<ServeResponse, ServeError> {
            Ok(ServeResponse::Prediction {
                class,
                similarity: 1.0,
                batched_with: 1,
            })
        };
        assert!(reply_is_correct(&prediction(4), 4));
        assert!(!reply_is_correct(&prediction(5), 4));
        let learned: Result<ServeResponse, ServeError> = Ok(ServeResponse::Learned {
            classes: vec![2, 4],
            total_classes: 9,
        });
        assert!(reply_is_correct(&learned, 4));
        assert!(!reply_is_correct(&learned, 3));
        let refused: Result<ServeResponse, ServeError> = Err(ServeError::ShuttingDown);
        assert!(!reply_is_correct(&refused, 0));
        let wrong_kind: Result<ServeResponse, ServeError> =
            Ok(ServeResponse::Snapshot { bytes: Vec::new() });
        assert!(!reply_is_correct(&wrong_kind, 0));
    }
}
