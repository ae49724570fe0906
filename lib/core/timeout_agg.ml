open Bft_types

(* A view's timeout-message aggregation: distinct senders plus the highest
   certificate they reported (the provable high certificate of its TC). *)
type entry = {
  signers : Bft_crypto.Signer_set.t;
  mutable high : Cert.t option;
  mutable amplified : bool;
  mutable tc_formed : bool;
}

type t = {
  n : int;
  quorum : int;
  probe : (Probe.event -> unit) option;
  entries : (int, entry) Hashtbl.t;
  tcs : (int, Tc.t) Hashtbl.t;
}

let create env =
  {
    n = Env.n env;
    quorum = Env.quorum env;
    probe = env.Env.probe;
    entries = Hashtbl.create 16;
    tcs = Hashtbl.create 16;
  }

let entry t view =
  match Hashtbl.find t.entries view with
  | e -> e
  | exception Not_found ->
      let e =
        {
          signers = Bft_crypto.Signer_set.create ~n:t.n;
          high = None;
          amplified = false;
          tc_formed = false;
        }
      in
      Hashtbl.replace t.entries view e;
      e

let add t ~view ~src cert =
  let e = entry t view in
  if not (Bft_crypto.Signer_set.add e.signers src) then 0
  else begin
    (* Once the TC formed, its certificate is fixed: later reports are
       inert. *)
    if not e.tc_formed then begin
      match (cert, e.high) with
      | Some c, Some h when Cert.rank_gt c h -> e.high <- cert
      | Some _, None -> e.high <- cert
      | _ -> ()
    end;
    Bft_crypto.Signer_set.count e.signers
  end

let amplify t view =
  let e = entry t view in
  let first = not e.amplified in
  e.amplified <- true;
  first

let form_tc t view =
  match Hashtbl.find t.entries view with
  | exception Not_found -> None
  | e ->
      let count = Bft_crypto.Signer_set.count e.signers in
      if e.tc_formed || count < t.quorum then None
      else begin
        e.tc_formed <- true;
        (match t.probe with
        | Some probe -> probe (Probe.Tc_formed { view; signers = count })
        | None -> ());
        Some (Tc.make ~view ~high_cert:e.high ~signers:count)
      end

let hold t (tc : Tc.t) =
  if Hashtbl.mem t.tcs tc.Tc.view then false
  else begin
    Hashtbl.replace t.tcs tc.Tc.view tc;
    true
  end

let h = Hash.to_int64

let sum tbl per_entry =
  Hashtbl.fold (fun k v acc -> Int64.add acc (per_entry k v)) tbl 0L

let entries_digest t =
  sum t.entries (fun view e ->
      let senders =
        if e.tc_formed then [ 1L ]
        else 0L :: List.map Int64.of_int (Bft_crypto.Signer_set.to_list e.signers)
      in
      (* A view that neither saw a certificate nor amplified — every view of
         Simple Moonshot, whose timeouts prove no lock — digests its senders
         alone. *)
      let fields =
        match (e.high, e.amplified) with
        | None, false -> senders
        | high, amplified ->
            (match high with None -> 0L | Some c -> h (Cert.digest c))
            :: (if amplified then 1L else 0L)
            :: senders
      in
      h (Hash.of_fields (Int64.of_int view :: fields)))

let tcs_digest t =
  sum t.tcs (fun view tc ->
      h (Hash.of_fields [ Int64.of_int view; h (Tc.digest tc) ]))
