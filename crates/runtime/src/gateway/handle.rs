//! The asynchronous side of a request: the [`RequestHandle`] a submitter
//! holds and the shared slot the event loop resolves it through.

use std::sync::{Arc, Mutex as StdMutex, OnceLock, PoisonError};

use crate::clock::{passively, Clock};
use crate::engine::event::PanicPayload;
use crate::message::RuntimeError;
use crate::request::QosClass;

use super::ServiceResponse;

/// What an asynchronous request resolved to, parked in its handle until
/// the submitter collects it.
enum HandleResult {
    // Boxed: a `ServiceResponse` dwarfs the panic payload, and the slot
    // holds the variant until the submitter collects it.
    Done(Box<Result<ServiceResponse, RuntimeError>>),
    Panicked(PanicPayload),
}

/// State shared between a [`RequestHandle`] and the event-loop side that
/// resolves it: a write-once cell, so the first `finish` wins and later
/// calls (e.g. a shutdown guard racing a preemption result) are ignored.
/// The submitter takes the result out from under the inner lock.
pub(super) struct HandleShared {
    clock: Arc<dyn Clock>,
    result: OnceLock<StdMutex<Option<HandleResult>>>,
}

impl HandleShared {
    pub(super) fn new(clock: Arc<dyn Clock>) -> Self {
        HandleShared {
            clock,
            result: OnceLock::new(),
        }
    }

    pub(super) fn finish(&self, result: Result<ServiceResponse, RuntimeError>) {
        self.park(HandleResult::Done(Box::new(result)));
    }

    fn park(&self, result: HandleResult) {
        let _ = self.result.set(StdMutex::new(Some(result)));
    }
}

/// Guards an asynchronous request's handle against being orphaned: drops
/// on any path that forgets to resolve the handle (a continuation discarded
/// by a shutting-down core, a panic between admission and submission) fail
/// it with [`RuntimeError::Shutdown`] so [`RequestHandle::wait`] can never
/// park forever.
pub(super) struct FinishGuard(pub(super) Arc<HandleShared>);

impl FinishGuard {
    pub(super) fn finish(self, result: Result<ServiceResponse, RuntimeError>) {
        self.0.finish(result);
    }

    pub(super) fn finish_panic(self, panic: PanicPayload) {
        self.0.park(HandleResult::Panicked(panic));
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        if self.0.result.get().is_none() {
            self.0.finish(Err(RuntimeError::Shutdown));
        }
    }
}

/// A pending asynchronous request, returned by
/// [`Gateway::submit_async`](super::Gateway::submit_async).
///
/// The handle is detached from the request's execution: dropping it does
/// not cancel the request (its deadline and admission bounds still
/// apply), and [`RequestHandle::wait`] merely parks until the event loop
/// resolves it.
#[derive(Debug)]
pub struct RequestHandle {
    pub(super) request_id: u64,
    pub(super) class: QosClass,
    pub(super) shared: Arc<HandleShared>,
}

impl std::fmt::Debug for HandleShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleShared").finish_non_exhaustive()
    }
}

impl RequestHandle {
    /// The request id the response will carry.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The traffic class the request was admitted under.
    #[must_use]
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Returns the resolved response without blocking, or the handle back
    /// if the request is still pending.
    ///
    /// # Errors
    ///
    /// As [`RequestHandle::wait`], once resolved.
    pub fn try_wait(self) -> Result<Result<ServiceResponse, RuntimeError>, Self> {
        match self.shared.result.get() {
            Some(slot) => Ok(collect(slot)),
            None => Err(self),
        }
    }

    /// Parks until the request resolves and returns its response.
    ///
    /// A caller registered as a worker of the gateway's clock is marked
    /// passive for the duration of the wait (exactly as a queued blocking
    /// submit would be), so waiting on a handle never stalls the virtual
    /// time its own request needs to complete.
    ///
    /// If a provider panicked during the request, the panic resumes here,
    /// on the thread that collects the result — the event loop itself is
    /// never poisoned.
    ///
    /// # Errors
    ///
    /// Any error [`Gateway::submit`](super::Gateway::submit) can return, plus
    /// [`RuntimeError::Shutdown`] when the gateway was dropped before the
    /// request resolved and [`RuntimeError::DeadlineExceeded`] when the
    /// deadline expired while the request was still queued.
    pub fn wait(self) -> Result<ServiceResponse, RuntimeError> {
        collect(passively(&*self.shared.clock, || self.shared.result.wait()))
    }
}

/// Takes the result out of a resolved handle's slot, resuming a provider
/// panic on the collecting thread.
fn collect(slot: &StdMutex<Option<HandleResult>>) -> Result<ServiceResponse, RuntimeError> {
    match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
        Some(HandleResult::Done(result)) => *result,
        Some(HandleResult::Panicked(panic)) => std::panic::resume_unwind(panic),
        // Unreachable: collecting consumes the handle.
        None => Err(RuntimeError::Shutdown),
    }
}
