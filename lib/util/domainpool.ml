(* Parallel execution over OCaml 5 domains, shared-nothing: work is
   partitioned per domain up front, each domain owns its data outright,
   and a worker's only output is the value it returns when joined. *)

(* Run [f 0 .. f (domains-1)] in parallel and return their results in
   index order. [domains = 1] runs inline on the calling domain — no
   spawn, no barrier cost — which is what keeps the single-domain sim
   path byte-exact and scheduler-free. An exception in any worker is
   re-raised after all domains have been joined. *)
let run ~domains f =
  if domains < 1 then invalid_arg "Domainpool.run: domains must be >= 1";
  if domains = 1 then [| f 0 |]
  else begin
    let workers =
      Array.init domains (fun i -> Domain.spawn (fun () -> f i))
    in
    let results = Array.make domains None in
    let first_exn = ref None in
    Array.iteri
      (fun i d ->
        match Domain.join d with
        | v -> results.(i) <- Some v
        | exception e -> if !first_exn = None then first_exn := Some e)
      workers;
    (match !first_exn with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> assert false)
      results
  end
