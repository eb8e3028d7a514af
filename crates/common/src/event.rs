//! The update-stream event model.
//!
//! Section 2 of the paper: "we consider a database as a set of relations
//! each subject to an arbitrary sequence of inserts, updates and deletes".
//! An [`Event`] is one such request. Updates are modelled as a delete of
//! the old tuple followed by an insert of the new tuple ("For ease of
//! presentation, we can consider updates as pairs of delete and insert
//! requests") — [`Event::update`] expands to exactly that pair, and every
//! engine in the workspace consumes the expanded form.

use serde::{Deserialize, Serialize};

use crate::tuple::Tuple;

/// The kind of delta applied to a base relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    Insert,
    Delete,
}

impl EventKind {
    /// The multiplicity sign carried by this event kind: a trigger's `w`.
    pub fn sign(&self) -> i64 {
        match self {
            EventKind::Insert => 1,
            EventKind::Delete => -1,
        }
    }

    /// Short label used in the CSV archive's operation column
    /// (`insert`, `delete`); trigger names carry no kind.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Insert => "insert",
            EventKind::Delete => "delete",
        }
    }
}

/// A single delta on a base relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Upper-cased base relation name.
    pub relation: String,
    pub kind: EventKind,
    pub tuple: Tuple,
}

impl Event {
    pub fn insert(relation: impl Into<String>, tuple: Tuple) -> Event {
        Event {
            relation: relation.into().to_ascii_uppercase(),
            kind: EventKind::Insert,
            tuple,
        }
    }

    pub fn delete(relation: impl Into<String>, tuple: Tuple) -> Event {
        Event {
            relation: relation.into().to_ascii_uppercase(),
            kind: EventKind::Delete,
            tuple,
        }
    }

    /// An in-place update expands to a delete of `old` then an insert of
    /// `new`, per the paper's treatment of updates.
    pub fn update(relation: impl Into<String>, old: Tuple, new: Tuple) -> [Event; 2] {
        let relation = relation.into().to_ascii_uppercase();
        [
            Event {
                relation: relation.clone(),
                kind: EventKind::Delete,
                tuple: old,
            },
            Event {
                relation,
                kind: EventKind::Insert,
                tuple: new,
            },
        ]
    }
}

/// A finite or replayable sequence of events: the "update stream" feeding
/// standing queries. Workload generators produce these; engines consume
/// them one event at a time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateStream {
    pub events: Vec<Event>,
}

impl UpdateStream {
    pub fn new() -> UpdateStream {
        UpdateStream::default()
    }

    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Append a delete+insert pair for an update request.
    pub fn push_update(&mut self, relation: impl Into<String>, old: Tuple, new: Tuple) {
        let [d, i] = Event::update(relation, old, new);
        self.events.push(d);
        self.events.push(i);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Number of events per relation, for workload reporting.
    pub fn counts_by_relation(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for e in &self.events {
            match counts.iter_mut().find(|(r, _)| r == &e.relation) {
                Some((_, c)) => *c += 1,
                None => counts.push((e.relation.clone(), 1)),
            }
        }
        counts
    }
}

impl UpdateStream {
    /// Split the stream into contiguous [`EventBatch`]es of at most
    /// `batch_size` events (the batched-ingestion path of the view
    /// server). The final batch may be shorter.
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = EventBatch> + '_ {
        let size = batch_size.max(1);
        self.events
            .chunks(size)
            .map(|c| EventBatch { events: c.to_vec() })
    }
}

/// A contiguous run of events ingested as one unit.
///
/// Batching amortizes per-event overhead across the runtime: the view
/// server takes each engine's write lock once per batch instead of once
/// per event, and [`relations`](EventBatch::relations) lets the
/// dispatcher skip engines whose triggers reference none of the batch's
/// relations. Order within a batch is preserved exactly — a batch is a
/// window onto the update stream, not a reordering of it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    pub events: Vec<Event>,
}

impl EventBatch {
    pub fn new() -> EventBatch {
        EventBatch::default()
    }

    pub fn with_capacity(capacity: usize) -> EventBatch {
        EventBatch {
            events: Vec::with_capacity(capacity),
        }
    }

    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// The distinct relations touched by this batch, in first-occurrence
    /// order (the dispatch key of the view server).
    pub fn relations(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.relation.as_str()) {
                out.push(&e.relation);
            }
        }
        out
    }
}

/// Batches read as event slices, so consumers taking `&[Event]` (the
/// zero-copy ingestion surface) accept `&EventBatch` directly.
impl std::ops::Deref for EventBatch {
    type Target = [Event];
    fn deref(&self) -> &[Event] {
        &self.events
    }
}

impl From<UpdateStream> for EventBatch {
    fn from(stream: UpdateStream) -> EventBatch {
        EventBatch {
            events: stream.events,
        }
    }
}

impl From<Vec<Event>> for EventBatch {
    fn from(events: Vec<Event>) -> EventBatch {
        EventBatch { events }
    }
}

impl IntoIterator for EventBatch {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<Event> for EventBatch {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        EventBatch {
            events: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for UpdateStream {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a UpdateStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<Event> for UpdateStream {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        UpdateStream {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn signs_match_event_kinds() {
        assert_eq!(EventKind::Insert.sign(), 1);
        assert_eq!(EventKind::Delete.sign(), -1);
    }

    #[test]
    fn update_expands_to_delete_then_insert() {
        let [d, i] = Event::update("r", tuple![1i64], tuple![2i64]);
        assert_eq!(d.kind, EventKind::Delete);
        assert_eq!(i.kind, EventKind::Insert);
        assert_eq!(d.relation, "R");
        assert_eq!(i.tuple, tuple![2i64]);
    }

    #[test]
    fn relation_names_are_normalized() {
        let e = Event::insert("bids", tuple![1i64]);
        assert_eq!(e.relation, "BIDS");
    }

    #[test]
    fn batches_cover_the_stream_in_order() {
        let mut s = UpdateStream::new();
        for i in 0..10i64 {
            s.push(Event::insert(if i % 2 == 0 { "R" } else { "S" }, tuple![i]));
        }
        let batches: Vec<EventBatch> = s.batches(4).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let rejoined: Vec<Event> = batches.into_iter().flatten().collect();
        assert_eq!(rejoined, s.events);
    }

    #[test]
    fn batch_relations_are_distinct_in_first_occurrence_order() {
        let batch: EventBatch = vec![
            Event::insert("S", tuple![1i64]),
            Event::insert("R", tuple![2i64]),
            Event::delete("S", tuple![1i64]),
        ]
        .into();
        assert_eq!(batch.relations(), vec!["S", "R"]);
    }

    #[test]
    fn stream_counts_by_relation() {
        let mut s = UpdateStream::new();
        s.push(Event::insert("R", tuple![1i64, 2i64]));
        s.push(Event::insert("S", tuple![2i64, 3i64]));
        s.push_update("R", tuple![1i64, 2i64], tuple![1i64, 3i64]);
        assert_eq!(s.len(), 4);
        let counts = s.counts_by_relation();
        assert!(counts.contains(&("R".to_string(), 3)));
        assert!(counts.contains(&("S".to_string(), 1)));
    }
}
