//! The service wire protocol: tagged request/response messages packed
//! with the same little-endian [`charmrt::wire`] codec the proc backend
//! uses, framed as `u32 len · u64 crc64 · body` by
//! [`charmrt::wire::write_frame`]/[`charmrt::wire::read_frame`]. One request frame in,
//! one or more response frames out (`Watch` streams `Metrics` frames and
//! ends with `Done`); decoding rejects truncation *and* trailing bytes.

use crate::sched::{AnalysisSummary, EnergySummary, JobOutcome, JobStatus, MetricsFrame, ServeStats};
use crate::spec::CacheKey;
use charmrt::wire::{Dec, Enc, WireCodec, WireError};
use charmrt::Payload;

fn put_str(e: &mut Enc, s: &str) {
    e.bytes(s.as_bytes());
}

fn get_str(d: &mut Dec, what: &str) -> Result<String, WireError> {
    let raw = d.bytes(what)?;
    String::from_utf8(raw).map_err(|_| WireError(format!("{what}: invalid UTF-8")))
}

fn finish<T>(d: &Dec, v: T, what: &str) -> Result<T, WireError> {
    if d.remaining() != 0 {
        return Err(WireError(format!(
            "{what}: {} trailing bytes",
            d.remaining()
        )));
    }
    Ok(v)
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job-spec JSON document (validated server-side).
    Submit { spec_json: String },
    /// One-shot status snapshot of a job.
    Status { job: u64 },
    /// Stream `Metrics` frames for a job until it is terminal, then the
    /// terminal `Done`/`Error` response.
    Watch { job: u64 },
    /// Block until the job is terminal and return its outcome.
    Result { job: u64 },
    /// Pool-wide counters.
    Stats,
    /// Stop accepting jobs; respond once everything in flight finished.
    Drain,
    /// Drain, then stop the server loop.
    Shutdown,
}

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_WATCH: u8 = 3;
const REQ_RESULT: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_DRAIN: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

impl WireCodec for Request {
    fn pack(&self) -> Payload {
        let mut e = Enc::new();
        match self {
            Request::Submit { spec_json } => {
                e.u8(REQ_SUBMIT);
                put_str(&mut e, spec_json);
            }
            Request::Status { job } => {
                e.u8(REQ_STATUS);
                e.u64(*job);
            }
            Request::Watch { job } => {
                e.u8(REQ_WATCH);
                e.u64(*job);
            }
            Request::Result { job } => {
                e.u8(REQ_RESULT);
                e.u64(*job);
            }
            Request::Stats => e.u8(REQ_STATS),
            Request::Drain => e.u8(REQ_DRAIN),
            Request::Shutdown => e.u8(REQ_SHUTDOWN),
        }
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec::new(bytes);
        let tag = d.u8("request tag")?;
        let v = match tag {
            REQ_SUBMIT => Request::Submit {
                spec_json: get_str(&mut d, "spec json")?,
            },
            REQ_STATUS => Request::Status {
                job: d.u64("job id")?,
            },
            REQ_WATCH => Request::Watch {
                job: d.u64("job id")?,
            },
            REQ_RESULT => Request::Result {
                job: d.u64("job id")?,
            },
            REQ_STATS => Request::Stats,
            REQ_DRAIN => Request::Drain,
            REQ_SHUTDOWN => Request::Shutdown,
            t => return Err(WireError(format!("unknown request tag {t}"))),
        };
        finish(&d, v, "request")
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Submit accepted: job id plus how it was satisfied
    /// ("enqueued" | "cache-hit" | "coalesced").
    Submitted {
        job: u64,
        disposition: String,
        key_hi: u64,
        key_lo: u64,
    },
    /// Status snapshot.
    Status {
        job: u64,
        state: String,
        steps_done: u64,
        steps_total: u64,
        preemptions: u32,
        recoveries: u32,
    },
    /// One streamed metrics frame (Watch).
    Metrics { job: u64, frame: MetricsFrame },
    /// Terminal success.
    Done { job: u64, outcome: WireOutcome },
    /// Pool counters.
    Stats(ServeStats),
    /// Drain finished (`clean` = everything terminal before the server
    /// timeout).
    Drained { clean: bool },
    /// Terminal failure of a request or job.
    Error { msg: String },
}

/// [`JobOutcome`] as wire fields.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    pub key_hi: u64,
    pub key_lo: u64,
    pub steps: u64,
    pub energy_n: u64,
    pub energy_mean: f64,
    pub energy_m2: f64,
    pub energy_min: f64,
    pub energy_max: f64,
    pub state_crc: u64,
    pub preemptions: u32,
    pub recoveries: u32,
    pub children: u32,
    /// Reduced observables (analyze jobs only; a presence flag on the
    /// wire, so simulate outcomes pay one byte).
    pub analysis: Option<AnalysisSummary>,
}

impl WireOutcome {
    pub fn from_outcome(o: &JobOutcome) -> WireOutcome {
        WireOutcome {
            key_hi: o.key.0,
            key_lo: o.key.1,
            steps: o.steps,
            energy_n: o.energy.n,
            energy_mean: o.energy.mean,
            energy_m2: o.energy.m2,
            energy_min: o.energy.min,
            energy_max: o.energy.max,
            state_crc: o.state_crc,
            preemptions: o.preemptions,
            recoveries: o.recoveries,
            children: o.children,
            analysis: o.analysis,
        }
    }

    pub fn to_outcome(&self) -> JobOutcome {
        JobOutcome {
            key: CacheKey(self.key_hi, self.key_lo),
            steps: self.steps,
            energy: EnergySummary {
                n: self.energy_n,
                mean: self.energy_mean,
                m2: self.energy_m2,
                min: self.energy_min,
                max: self.energy_max,
            },
            state_crc: self.state_crc,
            preemptions: self.preemptions,
            recoveries: self.recoveries,
            children: self.children,
            analysis: self.analysis,
        }
    }

    fn put(&self, e: &mut Enc) {
        e.u64(self.key_hi);
        e.u64(self.key_lo);
        e.u64(self.steps);
        e.u64(self.energy_n);
        e.f64(self.energy_mean);
        e.f64(self.energy_m2);
        e.f64(self.energy_min);
        e.f64(self.energy_max);
        e.u64(self.state_crc);
        e.u32(self.preemptions);
        e.u32(self.recoveries);
        e.u32(self.children);
        match &self.analysis {
            None => e.u8(0),
            Some(a) => {
                e.u8(1);
                e.u32(a.frames);
                e.f64(a.rdf_peak_r);
                e.f64(a.rdf_peak_g);
                e.f64(a.rmsd_mean);
                e.f64(a.rmsd_max);
                e.f64(a.diffusion);
                e.f64(a.contact_occupancy);
                e.u64(a.obs_crc);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<WireOutcome, WireError> {
        let mut out = WireOutcome {
            key_hi: d.u64("key hi")?,
            key_lo: d.u64("key lo")?,
            steps: d.u64("steps")?,
            energy_n: d.u64("energy n")?,
            energy_mean: d.f64("energy mean")?,
            energy_m2: d.f64("energy m2")?,
            energy_min: d.f64("energy min")?,
            energy_max: d.f64("energy max")?,
            state_crc: d.u64("state crc")?,
            preemptions: d.u32("preemptions")?,
            recoveries: d.u32("recoveries")?,
            children: d.u32("children")?,
            analysis: None,
        };
        match d.u8("has analysis")? {
            0 => {}
            1 => {
                out.analysis = Some(AnalysisSummary {
                    frames: d.u32("frames")?,
                    rdf_peak_r: d.f64("rdf peak r")?,
                    rdf_peak_g: d.f64("rdf peak g")?,
                    rmsd_mean: d.f64("rmsd mean")?,
                    rmsd_max: d.f64("rmsd max")?,
                    diffusion: d.f64("diffusion")?,
                    contact_occupancy: d.f64("contact occupancy")?,
                    obs_crc: d.u64("obs crc")?,
                })
            }
            f => return Err(WireError(format!("bad analysis flag {f}"))),
        }
        Ok(out)
    }
}

impl Response {
    pub fn status_of(s: &JobStatus) -> Response {
        Response::Status {
            job: s.id,
            state: s.state.as_str().to_string(),
            steps_done: s.steps_done,
            steps_total: s.steps_total,
            preemptions: s.preemptions,
            recoveries: s.recoveries,
        }
    }
}

const RSP_SUBMITTED: u8 = 1;
const RSP_STATUS: u8 = 2;
const RSP_METRICS: u8 = 3;
const RSP_DONE: u8 = 4;
const RSP_STATS: u8 = 5;
const RSP_DRAINED: u8 = 6;
const RSP_ERROR: u8 = 7;

impl WireCodec for Response {
    fn pack(&self) -> Payload {
        let mut e = Enc::new();
        match self {
            Response::Submitted {
                job,
                disposition,
                key_hi,
                key_lo,
            } => {
                e.u8(RSP_SUBMITTED);
                e.u64(*job);
                put_str(&mut e, disposition);
                e.u64(*key_hi);
                e.u64(*key_lo);
            }
            Response::Status {
                job,
                state,
                steps_done,
                steps_total,
                preemptions,
                recoveries,
            } => {
                e.u8(RSP_STATUS);
                e.u64(*job);
                put_str(&mut e, state);
                e.u64(*steps_done);
                e.u64(*steps_total);
                e.u32(*preemptions);
                e.u32(*recoveries);
            }
            Response::Metrics { job, frame } => {
                e.u8(RSP_METRICS);
                e.u64(*job);
                e.u64(frame.step);
                e.f64(frame.energy_total);
                e.f64(frame.energy_potential);
                e.f64(frame.critical_path);
                e.u64(frame.msgs_sent);
                e.u64(frame.wire_bytes);
            }
            Response::Done { job, outcome } => {
                e.u8(RSP_DONE);
                e.u64(*job);
                outcome.put(&mut e);
            }
            Response::Stats(s) => {
                e.u8(RSP_STATS);
                e.u64(s.submitted);
                e.u64(s.completed);
                e.u64(s.failed);
                e.u64(s.rejected);
                e.u64(s.cache_hits);
                e.u64(s.coalesced);
                e.u64(s.cache_misses);
                e.u64(s.preemptions);
                e.u64(s.recoveries);
                e.u64(s.ensemble_children);
                e.u64(s.queue_depth);
                e.u64(s.running);
                e.u64(s.free_pes);
                e.u64(s.peak_outstanding);
                e.u64(s.outstanding);
            }
            Response::Drained { clean } => {
                e.u8(RSP_DRAINED);
                e.u8(*clean as u8);
            }
            Response::Error { msg } => {
                e.u8(RSP_ERROR);
                put_str(&mut e, msg);
            }
        }
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec::new(bytes);
        let tag = d.u8("response tag")?;
        let v = match tag {
            RSP_SUBMITTED => Response::Submitted {
                job: d.u64("job id")?,
                disposition: get_str(&mut d, "disposition")?,
                key_hi: d.u64("key hi")?,
                key_lo: d.u64("key lo")?,
            },
            RSP_STATUS => Response::Status {
                job: d.u64("job id")?,
                state: get_str(&mut d, "state")?,
                steps_done: d.u64("steps done")?,
                steps_total: d.u64("steps total")?,
                preemptions: d.u32("preemptions")?,
                recoveries: d.u32("recoveries")?,
            },
            RSP_METRICS => Response::Metrics {
                job: d.u64("job id")?,
                frame: MetricsFrame {
                    step: d.u64("step")?,
                    energy_total: d.f64("energy total")?,
                    energy_potential: d.f64("energy potential")?,
                    critical_path: d.f64("critical path")?,
                    msgs_sent: d.u64("msgs sent")?,
                    wire_bytes: d.u64("wire bytes")?,
                },
            },
            RSP_DONE => Response::Done {
                job: d.u64("job id")?,
                outcome: WireOutcome::get(&mut d)?,
            },
            RSP_STATS => Response::Stats(ServeStats {
                submitted: d.u64("submitted")?,
                completed: d.u64("completed")?,
                failed: d.u64("failed")?,
                rejected: d.u64("rejected")?,
                cache_hits: d.u64("cache hits")?,
                coalesced: d.u64("coalesced")?,
                cache_misses: d.u64("cache misses")?,
                preemptions: d.u64("preemptions")?,
                recoveries: d.u64("recoveries")?,
                ensemble_children: d.u64("ensemble children")?,
                queue_depth: d.u64("queue depth")?,
                running: d.u64("running")?,
                free_pes: d.u64("free pes")?,
                peak_outstanding: d.u64("peak outstanding")?,
                outstanding: d.u64("outstanding")?,
            }),
            RSP_DRAINED => Response::Drained {
                clean: d.u8("clean")? != 0,
            },
            RSP_ERROR => Response::Error {
                msg: get_str(&mut d, "error message")?,
            },
            t => return Err(WireError(format!("unknown response tag {t}"))),
        };
        finish(&d, v, "response")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(r: Request) {
        let packed = r.pack();
        assert_eq!(Request::unpack(&packed).unwrap(), r);
        // Truncation and trailing garbage both rejected.
        if !packed.is_empty() {
            assert!(Request::unpack(&packed[..packed.len() - 1]).is_err());
        }
        let mut longer = packed.clone();
        longer.push(0);
        assert!(Request::unpack(&longer).is_err());
    }

    fn round_trip_rsp(r: Response) {
        let packed = r.pack();
        assert_eq!(Response::unpack(&packed).unwrap(), r);
        let mut longer = packed.clone();
        longer.push(0);
        assert!(Response::unpack(&longer).is_err());
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Submit {
            spec_json: r#"{"steps": 5}"#.into(),
        });
        round_trip_req(Request::Status { job: 7 });
        round_trip_req(Request::Watch { job: 1 });
        round_trip_req(Request::Result { job: u64::MAX });
        round_trip_req(Request::Stats);
        round_trip_req(Request::Drain);
        round_trip_req(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_rsp(Response::Submitted {
            job: 3,
            disposition: "cache-hit".into(),
            key_hi: 0xdead,
            key_lo: 0xbeef,
        });
        round_trip_rsp(Response::Status {
            job: 3,
            state: "parked".into(),
            steps_done: 40,
            steps_total: 100,
            preemptions: 2,
            recoveries: 1,
        });
        round_trip_rsp(Response::Metrics {
            job: 9,
            frame: MetricsFrame {
                step: 20,
                energy_total: -1.5,
                energy_potential: -2.25,
                critical_path: 0.125,
                msgs_sent: 44,
                wire_bytes: 0,
            },
        });
        let outcome = JobOutcome {
            key: CacheKey(1, 2),
            steps: 64,
            energy: EnergySummary {
                n: 64,
                mean: -3.0,
                m2: 0.5,
                min: -4.0,
                max: -2.0,
            },
            state_crc: 0xabcdef,
            preemptions: 3,
            recoveries: 0,
            children: 0,
            analysis: None,
        };
        let wire = WireOutcome::from_outcome(&outcome);
        assert_eq!(wire.to_outcome(), outcome);
        round_trip_rsp(Response::Done {
            job: 4,
            outcome: wire,
        });
        // Analyze outcomes carry the observable summary across the wire.
        let analyzed = JobOutcome {
            analysis: Some(AnalysisSummary {
                frames: 5,
                rdf_peak_r: 2.75,
                rdf_peak_g: 3.5,
                rmsd_mean: 0.25,
                rmsd_max: 0.5,
                diffusion: 1.5e-4,
                contact_occupancy: 0.75,
                obs_crc: 0x1234_5678_9abc_def0,
            }),
            ..outcome
        };
        let wire = WireOutcome::from_outcome(&analyzed);
        assert_eq!(wire.to_outcome(), analyzed);
        round_trip_rsp(Response::Done {
            job: 5,
            outcome: wire,
        });
        round_trip_rsp(Response::Stats(ServeStats {
            submitted: 10,
            completed: 9,
            peak_outstanding: 5,
            ..Default::default()
        }));
        round_trip_rsp(Response::Drained { clean: true });
        round_trip_rsp(Response::Error {
            msg: "no such job".into(),
        });
    }

    #[test]
    fn unknown_tags_are_errors() {
        assert!(Request::unpack(&[99]).is_err());
        assert!(Response::unpack(&[99]).is_err());
        assert!(Request::unpack(&[]).is_err());
    }
}
