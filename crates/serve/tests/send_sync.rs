//! Compile-time thread-safety audit for everything the server shares
//! across its worker, handler, and accept threads. A regression here —
//! say an `Rc` or `RefCell` slipping into the `Workbench` or a pipeline
//! — fails this file at *compile* time, before any runtime test runs.

use std::net::TcpStream;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_server_state_is_send_and_sync() {
    // The workbench is owned by the root thread and borrowed by every
    // worker through the engine: it must be Sync.
    assert_send_sync::<llmkg::Workbench>();
    // The engine itself is handed to workers as `&Engine`.
    assert_send_sync::<serve::Engine<'_>>();
    // The admission queue is the cross-thread rendezvous.
    assert_send_sync::<serve::AdmissionController<String>>();
    // Resilience primitives travel with jobs between threads.
    assert_send_sync::<resilience::CancelToken>();
    assert_send_sync::<resilience::ResourceLimits>();
    assert_send::<resilience::CancelGuard>();
    // Observability state is written from every thread.
    assert_send_sync::<obs::Registry>();
    assert_send_sync::<obs::Tracer>();
    assert_send_sync::<obs::MetricsSnapshot>();
}

#[test]
fn borrowed_pipelines_are_shareable() {
    // Workers answer RAG requests through one shared `&RagPipeline`;
    // chatbots are built per request and may move to a worker thread.
    assert_send_sync::<kgrag::RagPipeline<'_>>();
    assert_send::<kgqa::chatbot::ChatBot<'_>>();
}

#[test]
fn protocol_and_handle_types_cross_threads() {
    assert_send::<serve::Request>();
    assert_send_sync::<serve::Scenario>();
    assert_send_sync::<serve::Tenant>();
    assert_send_sync::<serve::Grade>();
    // The server handle is created on one thread and often dropped on
    // another (tests, benches).
    assert_send::<serve::ServerHandle>();
    assert_send::<TcpStream>();
}
