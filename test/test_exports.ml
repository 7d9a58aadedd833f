(* Export guard: every [val] in a library interface ([lib/*/*.mli]) must
   have a caller.  A name counts as called when it occurs as a whole word
   in the code (not a comment or a string literal) of some OCaml source
   under lib, bin, bench, perfbench, test or examples other than its own
   module's .ml and .mli.  The scan is lexical and deliberately crude: a
   common name such as [create] is always "called", so the guard only
   catches exports that nothing names at all — the ones that are
   certainly dead.

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
   comment. *)
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
  let rec code i =
    if i < n then
      if opens i then comment 1 (i + 2)
      else
        match literal_end i with
        | Some j ->
            Buffer.add_char out ' ';
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
      else match literal_end i with Some j -> comment depth j | None -> comment depth (i + 1)
    end
  in
  code 0;
  Buffer.contents out

(* Every whole word of a source file's code. *)
let words text =
  let text = code_only text in
  let tbl = Hashtbl.create 1024 in
  let n = String.length text in
  let rec go i =
    if i < n then
      if is_ident_char text.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do incr j done;
        Hashtbl.replace tbl (String.sub text i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  tbl

(* The [val]s an interface exports, each as its name and its path
   within the module ("External_flash.read_byte").  Operators are
   skipped (no whole word to look for), and so are the [val]s of a
   [module type], which are requirements on an argument rather than
   exports. *)
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
                  go ((name, path) :: acc) scopes rest
            else go acc scopes rest)
  in
  go [] [] (String.split_on_char '\n' text)

(* "lib/avr/cpu.mli" and "lib/avr/cpu.ml" are one module. *)
let module_of path = Filename.remove_extension path

let test_every_export_has_a_caller () =
  let files = List.concat_map sources roots in
  let words_of = List.map (fun f -> (f, words (read_file f))) files in
  let interfaces =
    List.filter
      (fun f -> Filename.check_suffix f ".mli" && String.starts_with ~prefix:"../lib/" f)
      files
  in
  let uncalled =
    List.concat_map
      (fun mli ->
        let own = module_of mli in
        exported_vals (read_file mli)
        |> List.filter (fun (name, _) ->
               not
                 (List.exists
                    (fun (f, ws) -> module_of f <> own && Hashtbl.mem ws name)
                    words_of))
        |> List.map (fun (_, path) ->
               Printf.sprintf "%s.%s" (String.capitalize_ascii (Filename.basename own)) path))
      interfaces
  in
  Alcotest.(check (list string)) "exports with no caller outside their module" [] uncalled

let () =
  Alcotest.run "exports"
    [
      ( "guard",
        [ Alcotest.test_case "every export has a caller" `Quick test_every_export_has_a_caller ] );
    ]
