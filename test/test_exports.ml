(* Export guard: every [val] in a library interface ([lib/*/*.mli]) must
   have a caller in some OCaml source under lib, bin, bench, perfbench,
   test or examples other than its own module's .ml and .mli.  Only code
   counts, not comments or string literals.

   A name that no other [lib] module also defines counts as called when
   it occurs there as a whole word.  A common name ([pp], [encode],
   [merge], [create]) needs a qualified use instead: through the
   module's path ([Mavr_sim.Dynamics.pp], or [Dynamics.pp] inside
   [mavr_sim] or after [open Mavr_sim]), through a [module X = ...]
   alias of a prefix of that path, or bare inside an [open] (or local
   open, or [include]) of the module itself.  Without that rule another
   module's [pp], or a local variable named [faults], would keep any
   export of the same name alive.

   Knob guard: every optional argument ([?label:]) of such a [val] must
   be passed by one of those callers, as [~label], [~label:] or [?label]
   in an application of it (see [passes]).  An option only its default
   ever takes is a constant in disguise.

   It reads source files only: nothing is compiled, loaded or run.  The
   roots are the dune [source_tree] dependencies of this test, seen from
   the test's build directory. *)

let roots = [ "../lib"; "../bin"; "../bench"; "../perfbench"; "../test"; "../examples" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then sources path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
           [ path ]
         else [])

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The code of a source file with its comments and literals blanked
   out, so that a name mentioned only in documentation or inside a
   string does not count as a caller.  String, quoted-string and
   character literals are skipped whole, inside comments too (as the
   OCaml lexer does), so a quoted delimiter cannot open or close a
   comment.  Newlines are kept, so the code keeps its lines. *)
let code_only text =
  let n = String.length text in
  let out = Buffer.create n in
  let rec find s j =
    if j + String.length s > n then n
    else if String.sub text j (String.length s) = s then j + String.length s
    else find s (j + 1)
  in
  (* The index just past the literal that starts at [i], if one does. *)
  let literal_end i =
    match text.[i] with
    | '"' ->
        let rec close j =
          if j >= n then n
          else if text.[j] = '\\' then close (j + 2)
          else if text.[j] = '"' then j + 1
          else close (j + 1)
        in
        Some (close (i + 1))
    | '{' ->
        (* {|...|} or {id|...|id} *)
        let rec id_end j =
          match text.[j] with 'a' .. 'z' | '_' when j + 1 < n -> id_end (j + 1) | _ -> j
        in
        let j = if i + 1 < n then id_end (i + 1) else i in
        if j > i && text.[j] = '|' then
          Some (find ("|" ^ String.sub text (i + 1) (j - i - 1) ^ "}") (j + 1))
        else None
    | '\'' when i + 2 < n && text.[i + 1] <> '\\' && text.[i + 2] = '\'' -> Some (i + 3)
    | '\'' when i + 3 < n && text.[i + 1] = '\\' -> (
        match String.index_from_opt text (i + 3) '\'' with Some j -> Some (j + 1) | None -> None)
    | _ -> None
  in
  let opens i = i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' in
  let closes i = i + 1 < n && text.[i] = '*' && text.[i + 1] = ')' in
  (* the newlines of [text] from [i] to [j], so lines stay lines *)
  let newlines i j =
    for k = i to min j n - 1 do
      if text.[k] = '\n' then Buffer.add_char out '\n'
    done
  in
  let rec code i =
    if i < n then
      if opens i then comment 1 (i + 2)
      else
        match literal_end i with
        | Some j ->
            Buffer.add_char out ' ';
            newlines i j;
            code j
        | None ->
            Buffer.add_char out text.[i];
            code (i + 1)
  and comment depth i =
    if i < n then begin
      if opens i then comment (depth + 1) (i + 2)
      else if closes i then
        if depth = 1 then begin
          Buffer.add_char out ' ';
          code (i + 2)
        end
        else comment (depth - 1) (i + 2)
      else
        let j = match literal_end i with Some j -> j | None -> i + 1 in
        newlines i j;
        comment depth j
    end
  in
  code 0;
  Buffer.contents out

let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_blank c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* A dotted module path ([Mavr_sim.Scenario]) as its components. *)
type path = string list

(* What the guard reads of one source file's code: each name it uses,
   with the module qualifiers written before it ([Sc.faults] gives
   [faults] under [["Sc"]], a bare [faults] gives [[]]); the module
   aliases it declares and the module paths it opens; and the names it
   binds ([let], [and], [external], [val]) and the record fields it
   declares. *)
type file = {
  code : string;
  uses : (string, path * int) Hashtbl.t;
  aliases : (string, path) Hashtbl.t;
  opens : path list;
  binds : string list;
  fields : string list;
}

let rec ident_end code j =
  if j < String.length code && is_ident_char code.[j] then ident_end code (j + 1) else j

(* Whether the whole word [w] starts at [i] of [code]. *)
let word_at code i w =
  let l = String.length w and n = String.length code in
  i >= 0 && i + l <= n
  && String.sub code i l = w
  && (i = 0 || not (is_ident_char code.[i - 1]))
  && (i + l = n || not (is_ident_char code.[i + l]))

let scan text =
  let code = code_only text in
  let n = String.length code in
  let rec skip i = if i < n && is_blank code.[i] then skip (i + 1) else i in
  let rec skip_back i = if i >= 0 && is_blank code.[i] then skip_back (i - 1) else i in
  let ident_end = ident_end code and word_at = word_at code in
  let ident i = String.sub code i (ident_end i - i) in
  let lower s = s <> "" && not (is_upper s.[0] || is_digit s.[0]) in
  (* the dotted path of capitalized components starting at [i] *)
  let rec module_path i =
    if i < n && is_upper code.[i] then
      let j = ident_end i in
      String.sub code i (j - i)
      :: (if j + 1 < n && code.[j] = '.' && is_upper code.[j + 1] then module_path (j + 1) else [])
    else []
  in
  let uses = Hashtbl.create 1024 and aliases = Hashtbl.create 16 in
  let opens = ref [] and binds = ref [] and fields = ref [] in
  (* What the word at [i] declares: [open P], [open! P], [include P];
     [module X = P] (a functor application reads as its functor's
     path); a [let]/[and]/[external]/[val] binding, past an attribute
     and [rec]; or a record field, [name :] after [{], [;] or
     [mutable]. *)
  let declaration i =
    if word_at i "open" || word_at i "include" then begin
      let j = skip (ident_end i) in
      match module_path (if j < n && code.[j] = '!' then skip (j + 1) else j) with
      | [] -> ()
      | p -> opens := p :: !opens
    end
    else if word_at i "module" then begin
      let j = skip (ident_end i) in
      let k = skip (ident_end j) in
      if j < n && is_upper code.[j] && k < n && code.[k] = '=' then
        match module_path (skip (k + 1)) with
        | [] -> ()
        | p -> Hashtbl.replace aliases (ident j) p
    end
    else if List.exists (word_at i) [ "let"; "and"; "external"; "val" ] then begin
      let j = skip (ident_end i) in
      let j = if j < n && code.[j] = '[' then skip (String.index_from code j ']' + 1) else j in
      let b = ident (if word_at j "rec" then skip (j + 3) else j) in
      if lower b then binds := b :: !binds
    end
    else
      let name = ident i and j = skip (ident_end i) and before = skip_back (i - 1) in
      if
        lower name && j + 1 < n && code.[j] = ':'
        && (not (String.contains ":=" code.[j + 1]))
        && ((before >= 0 && String.contains "{;" code.[before]) || word_at (before - 6) "mutable")
      then fields := name :: !fields
  in
  (* Each chain [A.B.c.d]: [c] is used under [["A"; "B"]], and [d], a
     field of [c], under [[]].  [A.B.(], [A.B.\[] and [A.B.{] open
     [A.B] locally. *)
  let rec go i =
    if i < n then
      if is_ident_char code.[i] && (i = 0 || not (is_ident_char code.[i - 1])) then begin
        declaration i;
        let rec chain quals i =
          let j = ident_end i in
          let id = String.sub code i (j - i) in
          let quals =
            if is_upper id.[0] then id :: quals
            else begin
              Hashtbl.add uses id (List.rev quals, j);
              []
            end
          in
          if j + 1 < n && code.[j] = '.' && is_ident_char code.[j + 1] then chain quals (j + 1)
          else begin
            if quals <> [] && j + 1 < n && code.[j] = '.' && String.contains "([{" code.[j + 1]
            then opens := List.rev quals :: !opens;
            go j
          end
        in
        if is_digit code.[i] then go (ident_end i) else chain [] i
      end
      else go (i + 1)
  in
  go 0;
  { code; uses; aliases; opens = List.rev !opens; binds = !binds; fields = !fields }

(* [p] with a leading alias replaced by what it names. *)
let rec expand f depth = function
  | m :: rest when depth > 0 && Hashtbl.mem f.aliases m ->
      expand f (depth - 1) (Hashtbl.find f.aliases m @ rest)
  | p -> p

(* Every prefix a path written in [f] may be relative to: its implicit
   [scope] (a [lib] source sees its own library's modules unqualified),
   each path it opens, and each path it opens relative to another one
   ([open Mavr_sim] then [open Scenario]). *)
let prefixes ~scope f =
  let opens = List.sort_uniq compare (List.map (expand f 8) f.opens) in
  let roots = ([] :: scope) @ opens in
  List.sort_uniq compare (roots @ List.concat_map (fun s -> List.map (fun o -> s @ o) opens) roots)

(* Where [f] names [name] as a member of module [m]: the index just
   past each such use. *)
let qualified_uses f ~prefixes name m =
  List.filter_map
    (fun (q, j) ->
      let q = expand f 8 q in
      if List.exists (fun s -> s @ q = m) prefixes then Some j else None)
    (Hashtbl.find_all f.uses name)

(* Words that end an application when they occur outside its brackets:
   the keywords that close the expression it sits in, and those that
   start the next definition. *)
let application_ends =
  [ "in"; "then"; "else"; "do"; "done"; "with"; "let"; "and"; "type"; "module"; "open";
    "include"; "val"; "external"; "exception" ]

(* Whether the application that starts at [i] of [code] (just past the
   applied name) passes the optional argument [label], as [~label],
   [~label:] or [?label] outside any bracket of its own.  The
   application ends at the first [;], [|], [->] or word of
   [application_ends] outside its brackets, or at a closing bracket
   it did not open; [begin]/[struct]/[sig]/[object] ... [end] are
   brackets too. *)
let passes code i label =
  let n = String.length code in
  let at k c = k < n && code.[k] = c in
  let rec go depth i =
    if i >= n then false
    else if is_ident_char code.[i] then
      let j = ident_end code i in
      match String.sub code i (j - i) with
      | "end" -> depth > 0 && go (depth - 1) j
      | "begin" | "struct" | "sig" | "object" -> go (depth + 1) j
      | w when depth = 0 && List.mem w application_ends -> false
      | _ -> go depth j
    else
      match code.[i] with
      | '(' | '[' | '{' -> go (depth + 1) (i + 1)
      | ')' | ']' | '}' -> depth > 0 && go (depth - 1) (i + 1)
      | ';' when depth = 0 -> false
      | '|' when depth = 0 ->
          (* [||] and [|>] are operators *)
          if at (i + 1) '|' || at (i + 1) '>' then go depth (i + 2)
          else false
      | '-' when depth = 0 && at (i + 1) '>' -> false
      | ('~' | '?') when depth = 0 && word_at code (i + 1) label -> true
      | _ -> go depth (i + 1)
  in
  go 0 i

(* The optional arguments ([?label:]) of a signature. *)
let knobs signature =
  let n = String.length signature in
  let rec go acc i =
    match String.index_from_opt signature i '?' with
    | None -> List.rev acc
    | Some i ->
        let j = ident_end signature (i + 1) in
        if j > i + 1 && j < n && signature.[j] = ':' then
          go (String.sub signature (i + 1) (j - i - 1) :: acc) j
        else go acc (i + 1)
  in
  go [] 0

(* The [val]s the interface [text] (comments stripped) exports, each as
   its name, its path within the module ("External_flash.read_byte")
   and its optional arguments.  Operators are skipped (no whole word to
   look for), and so are the [val]s of a [module type], which are
   requirements on an argument rather than exports. *)
let exported_vals text =
  let indent l =
    let rec count i = if i < String.length l && l.[i] = ' ' then count (i + 1) else i in
    count 0
  in
  let ident_prefix s =
    let rec scan i = if i < String.length s && is_ident_char s.[i] then scan (i + 1) else i in
    String.sub s 0 (scan 0)
  in
  let after prefix t =
    String.trim (String.sub t (String.length prefix) (String.length t - String.length prefix))
  in
  (* [scopes]: the enclosing [module ... : sig] and [module type], with
     the indentation of the [end] that closes each. *)
  let rec go acc scopes = function
    | [] -> List.rev acc
    | l :: rest -> (
        let t = String.trim l in
        match scopes with
        | (depth, _) :: outer when t = "end" && indent l = depth -> go acc outer rest
        | (_, None) :: _ -> go acc scopes rest
        | _ ->
            if String.starts_with ~prefix:"module type " t then
              go acc ((indent l, None) :: scopes) rest
            else if String.starts_with ~prefix:"module " t && String.ends_with ~suffix:"sig" t
            then go acc ((indent l, Some (ident_prefix (after "module " t))) :: scopes) rest
            else if String.starts_with ~prefix:"val " t then
              match ident_prefix (after "val " t) with
              | "" -> go acc scopes rest
              | name ->
                  let path =
                    List.fold_left
                      (fun p (_, m) -> match m with Some m -> m ^ "." ^ p | None -> p)
                      name scopes
                  in
                  let item l =
                    let t = String.trim l in
                    List.exists
                      (fun k -> t = k || String.starts_with ~prefix:(k ^ " ") t)
                      [ "val"; "type"; "module"; "end"; "external"; "exception"; "include" ]
                  in
                  let rec signature = function
                    | l :: rest when not (item l) -> l :: signature rest
                    | _ -> []
                  in
                  let knobs = knobs (String.concat "\n" (l :: signature rest)) in
                  go ((name, path, knobs) :: acc) scopes rest
            else go acc scopes rest)
  in
  go [] [] (String.split_on_char '\n' text)

(* "lib/avr/cpu.mli" and "lib/avr/cpu.ml" are one module. *)
let module_of path = Filename.remove_extension path

(* The wrapped library a [lib] source belongs to ("Mavr_avr"), read from
   the [(name ...)] of its directory's dune file. *)
let library_of path =
  let dir = Filename.dirname path in
  if not (String.starts_with ~prefix:"../lib/" path) then None
  else
    let dune = read_file (Filename.concat dir "dune") in
    let key = "(name " in
    let rec find i =
      if i + String.length key > String.length dune then None
      else if String.sub dune i (String.length key) = key then
        let j = i + String.length key in
        let k = ref j in
        while !k < String.length dune && is_ident_char dune.[!k] do incr k done;
        Some (String.capitalize_ascii (String.sub dune j (!k - j)))
      else find (i + 1)
    in
    find 0

(* Each [val] of a [lib] interface, as its printed name
   ("Mavr_sim.Scenario.create"), its optional arguments, and its
   callers: the code of each source file outside its own module that
   uses it, with the index just past each use.  A name that no other
   [lib] module binds is used at each whole-word occurrence; a common
   one only where qualified. *)
let exports =
  lazy
    (let files = List.concat_map sources roots in
     let in_lib f = String.starts_with ~prefix:"../lib/" f in
     let scanned =
       List.map
         (fun f ->
           let file = scan (read_file f) in
           let scope = match library_of f with Some l -> [ [ l ] ] | None -> [] in
           (f, file, prefixes ~scope file))
         files
     in
     (* name -> the [lib] modules that bind it; and every record field a
        [lib] module declares, since [r.name] reads like a use of [name] *)
     let binders = Hashtbl.create 4096 and fields = Hashtbl.create 1024 in
     List.iter
       (fun (f, file, _) ->
         if in_lib f then begin
           List.iter (fun name -> Hashtbl.replace fields name ()) file.fields;
           List.iter
             (fun name ->
               if not (List.mem (module_of f) (Hashtbl.find_all binders name)) then
                 Hashtbl.add binders name (module_of f))
             file.binds
         end)
       scanned;
     List.concat_map
       (fun mli ->
         let own = module_of mli in
         let lib = Option.get (library_of mli) in
         let top = String.capitalize_ascii (Filename.basename own) in
         let common name =
           Hashtbl.mem fields name || List.exists (fun m -> m <> own) (Hashtbl.find_all binders name)
         in
         exported_vals (code_only (read_file mli))
         |> List.map (fun (name, path, knobs) ->
                (* the module path of the export: library, module, submodules *)
                let m = lib :: top :: List.rev (List.tl (List.rev (String.split_on_char '.' path))) in
                let callers =
                  List.filter_map
                    (fun (f, file, prefixes) ->
                      if module_of f = own then None
                      else
                        match
                          if common name then qualified_uses file ~prefixes name m
                          else List.map snd (Hashtbl.find_all file.uses name)
                        with
                        | [] -> None
                        | uses -> Some (file.code, uses))
                    scanned
                in
                (Printf.sprintf "%s.%s.%s" lib top path, knobs, callers)))
       (List.filter (fun f -> in_lib f && Filename.check_suffix f ".mli") files))

let test_every_export_has_a_caller () =
  let uncalled =
    List.filter_map
      (fun (export, _, callers) -> if callers = [] then Some export else None)
      (Lazy.force exports)
  in
  Alcotest.(check (list string)) "exports with no caller outside their module" [] uncalled

(* An optional argument that no caller outside its module passes is a
   setting only its default ever takes. *)
let test_every_knob_has_a_caller () =
  let unpassed =
    List.concat_map
      (fun (export, knobs, callers) ->
        List.filter_map
          (fun label ->
            if
              List.exists
                (fun (code, uses) -> List.exists (fun i -> passes code i label) uses)
                callers
            then None
            else Some (Printf.sprintf "%s ?%s" export label))
          knobs)
      (Lazy.force exports)
  in
  Alcotest.(check (list string)) "optional arguments no caller outside their module passes" []
    unpassed

let () =
  Alcotest.run "exports"
    [
      ( "guard",
        [
          Alcotest.test_case "every export has a caller" `Quick test_every_export_has_a_caller;
          Alcotest.test_case "every knob has a caller" `Quick test_every_knob_has_a_caller;
        ] );
    ]
