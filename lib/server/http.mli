(** Minimal HTTP/1.1 endpoint for monitoring: a Prometheus scrape
    target ([GET /metrics], text exposition format) and a liveness
    probe ([GET /healthz], 503 while the engine is degraded).

    Runs its own accept-loop thread next to the binary-protocol
    listeners; every response closes the connection, so there is no
    keep-alive or header state to manage. *)

type t

val serve :
  host:string ->
  port:int ->
  metrics:(unit -> string) ->
  health:(unit -> string option) ->
  unit ->
  t
(** Bind [host:port] (port [0] picks a free one) and serve.  [metrics]
    is called per scrape (typically [Db.metrics] of the engine's
    handle); [health] returns [Some reason] while degraded, turning
    [/healthz] into a 503.  @raise Unix.Unix_error when the bind fails. *)

val bound_port : t -> int
(** The actually bound TCP port (after a [port:0] bind). *)

val stop : t -> unit
(** Close the listener and join the accept thread.  In-flight request
    threads finish on their own. *)
