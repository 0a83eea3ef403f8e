//! Versioned simulation snapshots: the [`SimState`] container and the
//! scalar [`Value`] encoders every layer's snapshot is written with.
//!
//! Each stateful layer writes its own fields with `to_value(&self)` and
//! rebuilds itself with `from_value(<config>, …, &Value)`, which turns
//! a damaged or mismatched snapshot into a typed [`SnapshotError`],
//! never a panic (DESIGN.md §12). This module holds what they share:
//! [`SimState`], with named sections encodable as JSON text or the
//! exact binary form ([`crate::codec`]), and the scalar helpers.
//!
//! # Bit-exactness
//!
//! The binary form stores every `f64` as raw IEEE-754 bits and is the
//! canonical snapshot format. The JSON form is human-inspectable and
//! exact for every value the simulator actually produces: finite
//! numbers round-trip bit-identically through the shortest-round-trip
//! formatter, and the four JSON-unrepresentable cases are escaped as
//! sentinel strings by [`v_f64`] (`"inf"`, `"-inf"`, `"nan"`, `"-0"`).
//! Integers above 2^53 travel as decimal strings ([`v_u64`]).
//!
//! # Versioning policy
//!
//! [`SIM_STATE_VERSION`] names the *semantic* shape of the section
//! tree; `codec::SNAPSHOT_VERSION` names the binary wire format. Both
//! are checked on load and a mismatch is a typed
//! [`SnapshotError::BadVersion`] — snapshots are not
//! forward/backward compatible across versions, by design (a snapshot
//! is a resume token, not an archive format).

use std::path::Path;

use crate::codec::{self, SnapshotError, Value};
use crate::ensure;
use crate::flow::{FlowSpec, Priority};
use crate::time::{Duration, Time};
use crate::topology::{LinkId, Route};

/// Semantic snapshot-state version (see the module docs for how it
/// relates to the binary codec version).
pub const SIM_STATE_VERSION: u32 = 2;

/// A versioned, named-section snapshot of a whole simulation stack.
///
/// Drivers compose one `SimState` from however many layers they own —
/// e.g. the cluster sweep stores a `"cluster"` section, a bare network
/// capture a `"net"` section — and encode it
/// with [`SimState::to_binary`] / [`SimState::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimState {
    sections: Vec<(String, Value)>,
}

impl SimState {
    /// An empty snapshot.
    pub fn new() -> SimState {
        SimState::default()
    }

    /// Adds (or replaces) a named section.
    pub fn insert(&mut self, name: impl Into<String>, v: Value) {
        let name = name.into();
        match self.sections.iter_mut().find(|(k, _)| *k == name) {
            Some((_, slot)) => *slot = v,
            None => self.sections.push((name, v)),
        }
    }

    /// Looks up a section by name; a missing one is a typed
    /// [`SnapshotError::Mismatch`].
    pub fn section(&self, name: &str) -> Result<&Value, SnapshotError> {
        let found = self.sections.iter().find(|(k, _)| k == name);
        found
            .map(|(_, v)| v)
            .ok_or_else(|| SnapshotError::Mismatch(format!("missing section `{name}`")))
    }

    /// The snapshot as a [`Value`] tree (magic, version, sections).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("magic".into(), Value::Str("FREDSNAP".into())),
            ("version".into(), v_u64(u64::from(SIM_STATE_VERSION))),
            ("sections".into(), Value::Obj(self.sections.clone())),
        ])
    }

    /// Rebuilds a snapshot from [`SimState::to_value`], checking magic
    /// and version.
    pub fn from_value(v: &Value) -> Result<SimState, SnapshotError> {
        match v.get("magic").and_then(Value::as_str) {
            Some("FREDSNAP") => {}
            _ => return Err(SnapshotError::BadMagic),
        }
        let version = u64_of(field(v, "version", "snapshot")?, "snapshot.version")?;
        if version != u64::from(SIM_STATE_VERSION) {
            return Err(SnapshotError::BadVersion {
                found: version.min(u64::from(u32::MAX)) as u32,
                expected: SIM_STATE_VERSION,
            });
        }
        let Some(Value::Obj(sections)) = v.get("sections") else {
            return Err(SnapshotError::Mismatch("sections is not an object".into()));
        };
        Ok(SimState {
            sections: sections.clone(),
        })
    }

    /// Renders the snapshot as JSON text (exact modulo the [`v_f64`]
    /// sentinel contract).
    pub fn to_json(&self) -> String {
        codec::to_json(&self.to_value())
    }

    /// Parses [`SimState::to_json`] output. Syntax errors surface as
    /// [`SnapshotError::Corrupt`]; wrong magic/version as their typed
    /// variants.
    pub fn from_json(s: &str) -> Result<SimState, SnapshotError> {
        let v = codec::parse(s).map_err(SnapshotError::Corrupt)?;
        SimState::from_value(&v)
    }

    /// Encodes the snapshot in the exact binary form.
    pub fn to_binary(&self) -> Vec<u8> {
        codec::to_binary(&self.to_value())
    }

    /// Decodes [`SimState::to_binary`] output.
    pub fn from_binary(bytes: &[u8]) -> Result<SimState, SnapshotError> {
        SimState::from_value(&codec::from_binary(bytes)?)
    }

    /// Writes the binary form to `path`.
    pub fn write_binary(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_binary()).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Reads a [`SimState::write_binary`] file.
    pub fn read_binary(path: impl AsRef<Path>) -> Result<SimState, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        SimState::from_binary(&bytes)
    }
}

// ---------------------------------------------------------------------
// Scalar encoding helpers.
// ---------------------------------------------------------------------

/// Encodes an `f64` for the JSON-safe tree. Finite non-negative-zero
/// values stay numbers (the emitter's shortest-round-trip rendering is
/// bit-exact for them); the four cases JSON/`push_num` would mangle
/// become sentinel strings: `"inf"`, `"-inf"`, `"nan"`, `"-0"`.
pub fn v_f64(x: f64) -> Value {
    if x.is_nan() {
        Value::Str("nan".into())
    } else if x == f64::INFINITY {
        Value::Str("inf".into())
    } else if x == f64::NEG_INFINITY {
        Value::Str("-inf".into())
    } else if x == 0.0 && x.is_sign_negative() {
        Value::Str("-0".into())
    } else {
        Value::Num(x)
    }
}

/// Decodes [`v_f64`].
pub fn f64_of(v: &Value, ctx: &str) -> Result<f64, SnapshotError> {
    match v {
        Value::Num(n) => Ok(*n),
        Value::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            "-0" => Ok(-0.0),
            other => Err(SnapshotError::Mismatch(format!(
                "{ctx}: `{other}` is not a number sentinel"
            ))),
        },
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected number, found {other:?}"
        ))),
    }
}

/// Encodes a `u64`. Values at or below 2^53 stay numbers (lossless in
/// an `f64`); larger ones travel as decimal strings.
pub fn v_u64(x: u64) -> Value {
    if x <= (1u64 << 53) {
        Value::Num(x as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Decodes [`v_u64`].
pub fn u64_of(v: &Value, ctx: &str) -> Result<u64, SnapshotError> {
    match v {
        Value::Num(n) => {
            if n.is_finite() && *n >= 0.0 && n.trunc() == *n && *n <= (1u64 << 53) as f64 {
                Ok(*n as u64)
            } else {
                Err(SnapshotError::Mismatch(format!(
                    "{ctx}: {n} is not a non-negative integer"
                )))
            }
        }
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|e| SnapshotError::Mismatch(format!("{ctx}: `{s}`: {e}"))),
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected integer, found {other:?}"
        ))),
    }
}

/// Decodes a `usize` via [`u64_of`].
pub fn usize_of(v: &Value, ctx: &str) -> Result<usize, SnapshotError> {
    usize::try_from(u64_of(v, ctx)?)
        .map_err(|_| SnapshotError::Mismatch(format!("{ctx}: value exceeds usize")))
}

/// Encodes a simulation instant as seconds.
pub fn v_time(t: Time) -> Value {
    v_f64(t.as_secs())
}

/// Decodes [`v_time`], rejecting values [`Time::from_secs`] would
/// panic on (NaN, infinite, negative) as typed errors.
pub fn time_of(v: &Value, ctx: &str) -> Result<Time, SnapshotError> {
    let secs = f64_of(v, ctx)?;
    ensure!(
        secs.is_finite() && secs >= 0.0,
        "{ctx}: {secs} is not a valid instant"
    );
    Ok(Time::from_secs(secs))
}

/// Encodes a span as seconds.
pub fn v_dur(d: Duration) -> Value {
    v_f64(d.as_secs())
}

/// Decodes [`v_dur`] with the same typed rejections as [`time_of`].
pub fn dur_of(v: &Value, ctx: &str) -> Result<Duration, SnapshotError> {
    let secs = f64_of(v, ctx)?;
    ensure!(
        secs.is_finite() && secs >= 0.0,
        "{ctx}: {secs} is not a valid duration"
    );
    Ok(Duration::from_secs(secs))
}

/// Encodes a slice of instants via [`v_time`].
pub fn times(ts: &[Time]) -> Value {
    Value::Arr(ts.iter().map(|&t| v_time(t)).collect())
}

/// Decodes [`times`].
pub fn times_of(v: &Value, ctx: &str) -> Result<Vec<Time>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|t| time_of(t, ctx)).collect()
}

/// The restore-time invariant check: unless `cond` holds, returns
/// early with a [`SnapshotError::Mismatch`] carrying the formatted
/// message (converted with `Into`, so callers returning a wrapping
/// error type can use it too).
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err($crate::codec::SnapshotError::Mismatch(format!($($msg)+)).into());
        }
    };
}

/// Field lookup that turns absence into a typed error.
pub fn field<'a>(obj: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, SnapshotError> {
    obj.get(key)
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: missing field `{key}`")))
}

/// Array access that turns a non-array into a typed error.
pub fn arr_of<'a>(v: &'a Value, ctx: &str) -> Result<&'a [Value], SnapshotError> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected array, found {other:?}"
        ))),
    }
}

/// An array of exactly `len` elements (a fixed-arity tuple).
pub fn tuple_of<'a>(v: &'a Value, len: usize, ctx: &str) -> Result<&'a [Value], SnapshotError> {
    let items = arr_of(v, ctx)?;
    ensure!(items.len() == len, "{ctx}: expected {len} elements");
    Ok(items)
}

/// `None` for [`Value::Null`], the encoding of an absent optional.
pub fn non_null(v: &Value) -> Option<&Value> {
    (*v != Value::Null).then_some(v)
}

/// Decodes a JSON boolean with a typed error.
pub fn bool_of(v: &Value, ctx: &str) -> Result<bool, SnapshotError> {
    v.as_bool()
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: expected bool")))
}

/// Encodes an `f64` slice via [`v_f64`].
pub fn f64s(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_f64(x)).collect())
}

/// Decodes [`f64s`].
pub fn f64s_of(v: &Value, ctx: &str) -> Result<Vec<f64>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| f64_of(x, ctx)).collect()
}

/// Encodes a `usize` slice via [`v_u64`].
pub fn usizes(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_u64(x as u64)).collect())
}

/// Decodes [`usizes`].
pub fn usizes_of(v: &Value, ctx: &str) -> Result<Vec<usize>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| usize_of(x, ctx)).collect()
}

/// Encodes a route as its link indices (the [`usizes`] layout).
pub fn route_value(route: &[LinkId]) -> Value {
    Value::Arr(route.iter().map(|l| v_u64(l.0 as u64)).collect())
}

/// Decodes [`route_value`] into a new shared route.
pub fn route_of(v: &Value, ctx: &str) -> Result<Route, SnapshotError> {
    arr_of(v, ctx)?
        .iter()
        .map(|x| usize_of(x, ctx).map(LinkId))
        .collect()
}

/// Encodes a `u32` slice via [`v_u64`].
pub fn u32s(xs: &[u32]) -> Value {
    Value::Arr(xs.iter().map(|&x| v_u64(u64::from(x))).collect())
}

/// Decodes [`u32s`].
pub fn u32s_of(v: &Value, ctx: &str) -> Result<Vec<u32>, SnapshotError> {
    arr_of(v, ctx)?
        .iter()
        .map(|x| {
            u64_of(x, ctx).and_then(|n| {
                u32::try_from(n)
                    .map_err(|_| SnapshotError::Mismatch(format!("{ctx}: {n} exceeds u32")))
            })
        })
        .collect()
}

/// Encodes a `bool` slice.
pub fn bools(xs: &[bool]) -> Value {
    Value::Arr(xs.iter().map(|&b| Value::Bool(b)).collect())
}

/// Decodes [`bools`].
pub fn bools_of(v: &Value, ctx: &str) -> Result<Vec<bool>, SnapshotError> {
    arr_of(v, ctx)?.iter().map(|x| bool_of(x, ctx)).collect()
}

// ---------------------------------------------------------------------
// Priority / flow-spec / completion conversions.
// ---------------------------------------------------------------------

/// Encodes a priority as its fill-class rank.
pub fn priority_to_value(p: Priority) -> Value {
    v_u64(p.rank() as u64)
}

/// Decodes [`priority_to_value`].
pub fn priority_from_value(v: &Value, ctx: &str) -> Result<Priority, SnapshotError> {
    let rank = usize_of(v, ctx)?;
    Priority::ALL
        .get(rank)
        .copied()
        .ok_or_else(|| SnapshotError::Mismatch(format!("{ctx}: priority rank {rank} out of range")))
}

/// Encodes a [`FlowSpec`] (used for staged-but-uninjected flows in
/// executor snapshots).
pub fn flow_spec_to_value(s: &FlowSpec) -> Value {
    Value::Obj(vec![
        ("route".into(), route_value(&s.route)),
        ("bytes".into(), v_f64(s.bytes)),
        ("priority".into(), priority_to_value(s.priority)),
        ("tag".into(), v_u64(s.tag)),
        ("tenant".into(), v_u64(u64::from(s.tenant))),
    ])
}

/// Decodes [`flow_spec_to_value`], re-validating the invariants the
/// [`FlowSpec`] constructors assert (finite non-negative bytes, tenant
/// within the class space) as typed errors instead of panics.
pub fn flow_spec_from_value(v: &Value, ctx: &str) -> Result<FlowSpec, SnapshotError> {
    let route = route_of(field(v, "route", ctx)?, ctx)?;
    let bytes = f64_of(field(v, "bytes", ctx)?, ctx)?;
    ensure!(
        bytes.is_finite() && bytes >= 0.0,
        "{ctx}: flow bytes {bytes} invalid"
    );
    let priority = priority_from_value(field(v, "priority", ctx)?, ctx)?;
    let tag = u64_of(field(v, "tag", ctx)?, ctx)?;
    let tenant = tenant_of(field(v, "tenant", ctx)?, ctx)?;
    Ok(FlowSpec::new(route, bytes)
        .with_priority(priority)
        .with_tag(tag)
        .with_tenant(tenant))
}

/// Decodes a tenant rank, rejecting ranks outside the fill-class space
/// (the range [`FlowSpec::with_tenant`] asserts) as typed errors.
pub fn tenant_of(v: &Value, ctx: &str) -> Result<u8, SnapshotError> {
    let tenant = u64_of(v, ctx)?;
    let max_tenant = (u8::MAX as usize / Priority::ALL.len()) as u64 - 1;
    ensure!(
        tenant <= max_tenant,
        "{ctx}: tenant {tenant} outside the class space"
    );
    Ok(tenant as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::FlowNetwork;
    use crate::topology::{NodeKind, Topology};
    use fred_telemetry::sink::NullSink;
    use std::rc::Rc;

    fn busy_net() -> (Topology, FlowNetwork) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 1e-6);
        let l1 = topo.add_link(a, b, 80.0, 0.0);
        let mut net = FlowNetwork::new(topo.clone());
        for i in 0..8u64 {
            let l = if i % 2 == 0 { l0 } else { l1 };
            net.inject(
                FlowSpec::new(vec![l], 50.0 + i as f64)
                    .with_tag(i)
                    .with_priority(Priority::ALL[(i % 3) as usize]),
            )
            .unwrap();
        }
        net.advance_to(Time::from_secs(0.4));
        net.fail_link(l1);
        (topo, net)
    }

    #[test]
    fn network_value_round_trips_json_and_binary_exactly() {
        let (topo, net) = busy_net();
        let v = net.to_value();
        let restored = FlowNetwork::from_value(topo, Rc::new(NullSink), &v).unwrap();
        assert_eq!(restored.to_value(), v);

        let mut sim = SimState::new();
        sim.insert("net", v);
        // Binary round-trip.
        let back = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(back, sim);
        // JSON round-trip (all simulator-produced values are finite).
        let back = SimState::from_json(&sim.to_json()).unwrap();
        assert_eq!(back, sim);
    }

    #[test]
    fn restored_network_from_decoded_state_resumes_identically() {
        let (topo, mut net) = busy_net();
        let bytes = {
            let mut sim = SimState::new();
            sim.insert("net", net.to_value());
            sim.to_binary()
        };
        let decoded = SimState::from_binary(&bytes).unwrap();
        let mut resumed =
            FlowNetwork::from_value(topo, Rc::new(NullSink), decoded.section("net").unwrap())
                .unwrap();
        let a: Vec<(u64, u64)> = net
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
            .collect();
        let b: Vec<(u64, u64)> = resumed
            .run_to_completion()
            .iter()
            .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn scalar_sentinels_round_trip_through_json() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-300,
            f64::MAX,
        ] {
            let mut sim = SimState::new();
            sim.insert("x", v_f64(x));
            let back = SimState::from_json(&sim.to_json()).unwrap();
            let y = f64_of(back.section("x").unwrap(), "x").unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "{x}");
        }
        for n in [0u64, 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut sim = SimState::new();
            sim.insert("n", v_u64(n));
            let back = SimState::from_json(&sim.to_json()).unwrap();
            assert_eq!(u64_of(back.section("n").unwrap(), "n").unwrap(), n);
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed_errors() {
        let mut sim = SimState::new();
        sim.insert("s", Value::Num(1.0));
        // Tamper with the semantic version inside the value tree.
        let Value::Obj(mut fields) = sim.to_value() else {
            panic!("not an object")
        };
        fields[1].1 = v_u64(999);
        assert!(matches!(
            SimState::from_value(&Value::Obj(fields.clone())),
            Err(SnapshotError::BadVersion { found: 999, .. })
        ));
        fields[0].1 = Value::Str("NOTASNAP".into());
        assert_eq!(
            SimState::from_value(&Value::Obj(fields)),
            Err(SnapshotError::BadMagic)
        );
        // JSON garbage is Corrupt, not a panic.
        assert!(matches!(
            SimState::from_json("{\"magic\": "),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
