//! Replay cursor: applies scheduled faults to a view as time advances.

use crate::schedule::{FaultEvent, FaultSchedule};
use crate::view::{AppliedFault, ClusterView};

/// Walks a [`FaultSchedule`] in time order, applying each due event to a
/// [`ClusterView`].
///
/// Both execution paths use the same cursor: the simulator advances it from
/// heap-event timestamps, the threaded runtime from nominal request-arrival
/// times (not jittery wall-clock readings), which is what keeps the two
/// paths' fault handling — and therefore their cache accounting —
/// identical for a given trace and schedule.
#[derive(Debug, Clone)]
pub struct FaultCursor {
    schedule: FaultSchedule,
    next: usize,
}

impl FaultCursor {
    /// A cursor at the start of `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultCursor { schedule, next: 0 }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Time of the next unapplied event, if any.
    pub fn next_at(&self) -> Option<f64> {
        self.schedule.events().get(self.next).map(|e| e.at_secs)
    }

    /// Applies every event with `at_secs <= now` to `view`, invoking
    /// `on_applied` for each in schedule order. Idempotent for a fixed
    /// `now`: already-applied events never fire again.
    pub fn advance_to(
        &mut self,
        now: f64,
        view: &mut ClusterView,
        mut on_applied: impl FnMut(&FaultEvent, AppliedFault),
    ) {
        while let Some(event) = self.schedule.events().get(self.next) {
            if event.at_secs > now {
                break;
            }
            let applied = view.apply(event);
            on_applied(event, applied);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultKind;
    use bat_types::WorkerId;

    #[test]
    fn advance_applies_due_events_once() {
        let schedule = FaultSchedule::single_crash(4, WorkerId::new(2), 10.0, 20.0).unwrap();
        let mut cursor = FaultCursor::new(schedule);
        let mut view = ClusterView::new(4);
        assert_eq!(cursor.next_at(), Some(10.0));

        let mut fired = Vec::new();
        cursor.advance_to(5.0, &mut view, |e, _| fired.push(e.at_secs));
        assert!(fired.is_empty());
        assert_eq!(view.n_alive(), 4);

        cursor.advance_to(15.0, &mut view, |e, _| fired.push(e.at_secs));
        assert_eq!(fired, vec![10.0]);
        assert!(!view.is_alive(WorkerId::new(2)));

        // Replaying the same instant applies nothing new.
        cursor.advance_to(15.0, &mut view, |e, _| fired.push(e.at_secs));
        assert_eq!(fired, vec![10.0]);

        cursor.advance_to(1e9, &mut view, |e, _| fired.push(e.at_secs));
        assert_eq!(fired, vec![10.0, 20.0]);
        assert!(view.is_alive(WorkerId::new(2)));
        assert_eq!(cursor.next_at(), None);
    }

    #[test]
    fn same_timestamp_events_apply_in_schedule_order() {
        let schedule = FaultSchedule::new(
            2,
            vec![
                FaultEvent {
                    at_secs: 5.0,
                    kind: FaultKind::WorkerCrash(WorkerId::new(0)),
                },
                FaultEvent {
                    at_secs: 5.0,
                    kind: FaultKind::WorkerRestart(WorkerId::new(0)),
                },
            ],
        )
        .unwrap();
        let mut cursor = FaultCursor::new(schedule);
        let mut view = ClusterView::new(2);
        let mut kinds = Vec::new();
        cursor.advance_to(5.0, &mut view, |e, _| kinds.push(e.kind));
        assert_eq!(kinds.len(), 2);
        assert!(view.is_alive(WorkerId::new(0)));
        assert_eq!(view.incarnation(WorkerId::new(0)), 1);
    }
}
